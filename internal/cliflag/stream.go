// The shared streaming-ingest flags: -stream enables mbserved's
// /v1/stream API, with the sweep range riding alongside.
package cliflag

import (
	"flag"
	"fmt"
)

// Stream holds the values of the streaming-ingest flags.
type Stream struct {
	// Enable turns the streaming ingest API on.
	Enable bool
	// KMin..KMax is the swept cluster-count range.
	KMin, KMax int
}

// RegisterStream registers the streaming-ingest flags on fs and returns
// the value holder; read it after fs.Parse.
func RegisterStream(fs *flag.FlagSet) *Stream {
	s := &Stream{}
	fs.BoolVar(&s.Enable, "stream", false,
		"enable the streaming ingest API (/v1/stream): records fold into an incrementally re-clustered analysis")
	fs.IntVar(&s.KMin, "stream-kmin", 2, "smallest cluster count the streaming sweep validates")
	fs.IntVar(&s.KMax, "stream-kmax", 9, "largest cluster count the streaming sweep validates")
	return s
}

// Validate rejects flag combinations before the server starts.
func (s *Stream) Validate() error {
	if !s.Enable {
		if s.KMin != 2 || s.KMax != 9 {
			return fmt.Errorf("-stream-kmin/-stream-kmax require -stream")
		}
		return nil
	}
	if s.KMin < 2 {
		return fmt.Errorf("-stream-kmin %d < 2", s.KMin)
	}
	if s.KMax < s.KMin {
		return fmt.Errorf("-stream-kmax %d < -stream-kmin %d", s.KMax, s.KMin)
	}
	return nil
}
