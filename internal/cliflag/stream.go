// The shared streaming-ingest flags: -stream enables mbserved's
// /v1/stream API, with the sweep range riding alongside.
package cliflag

import (
	"flag"
	"fmt"

	"mobilebench/internal/core"
)

// Stream holds the values of the streaming-ingest flags.
type Stream struct {
	// Enable turns the streaming ingest API on.
	Enable bool
	// KMin..KMax is the swept cluster-count range.
	KMin, KMax int
}

// RegisterStream registers the streaming-ingest flags on fs and returns
// the value holder; read it after fs.Parse. The range defaults are
// core.StreamOptions' own.
func RegisterStream(fs *flag.FlagSet) *Stream {
	s := &Stream{}
	d := core.StreamOptions{}.WithDefaults()
	fs.BoolVar(&s.Enable, "stream", false,
		"enable the streaming ingest API (/v1/stream): records fold into an incrementally re-clustered analysis")
	fs.IntVar(&s.KMin, "stream-kmin", d.KMin, "smallest cluster count the streaming sweep validates")
	fs.IntVar(&s.KMax, "stream-kmax", d.KMax, "largest cluster count the streaming sweep validates")
	return s
}

// Validate rejects flag combinations before the server starts; the range
// rules are core.StreamOptions.Validate's.
func (s *Stream) Validate() error {
	if !s.Enable {
		if d := (core.StreamOptions{}).WithDefaults(); s.KMin != d.KMin || s.KMax != d.KMax {
			return fmt.Errorf("-stream-kmin/-stream-kmax require -stream")
		}
		return nil
	}
	if err := (core.StreamOptions{KMin: s.KMin, KMax: s.KMax}).Validate(); err != nil {
		return fmt.Errorf("-stream-kmin/-stream-kmax: %w", err)
	}
	return nil
}
