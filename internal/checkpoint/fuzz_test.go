package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRead fuzzes the collection-checkpoint read — log framing plus payload
// decode — with arbitrary file bytes. It guards every collection a resume
// restores, so it must never panic, never allocate proportionally to a
// corrupt count field, and — when it does accept an input — decode to a
// snapshot whose re-encoding is read back identically (a fixed point, so
// resume-of-resume cannot drift).
func FuzzRead(f *testing.F) {
	// Seeds: the shapes the corpus files under testdata/fuzz/FuzzRead
	// complement — an empty log, a one-record and a full log (valid
	// results, a failed record, faults), a torn tail, a CRC flip, a
	// truncated record behind a valid CRC and a huge count field.
	f.Add([]byte{})
	f.Add(encodeLog(&Snapshot{Fingerprint: 0xfeed, Records: testSnapshot().Records[2:]}))
	full := encodeLog(testSnapshot())
	f.Add(full)
	f.Add(full[:len(full)-5])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-2] ^= 0x01
	f.Add(flipped)
	raw := rawRecord(1, &testSnapshot().Records[0])
	f.Add(frameRaw(raw[:40]))
	// A huge unit-name length with no data behind it: count-driven loops
	// and allocations must be bounded by the remaining bytes.
	binary.LittleEndian.PutUint32(raw[12:16], 0x7fffffff)
	f.Add(frameRaw(raw))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := readSnapshot("fuzz", data, 0)
		if err != nil {
			if s != nil {
				t.Fatal("readSnapshot returned both a snapshot and an error")
			}
			return
		}
		enc := encodeLog(s)
		s2, err := readSnapshot("fuzz-reencode", enc, 0)
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot no longer reads: %v", err)
		}
		if !bytes.Equal(enc, encodeLog(s2)) {
			t.Fatal("encode(read(encode(s))) is not a fixed point; resumed datasets could drift")
		}
		// The fingerprint gate must hold for every accepted record.
		if s.Fingerprint != 0 && len(s.Records) > 0 {
			if _, err := readSnapshot("fuzz", data, s.Fingerprint+1); err == nil {
				t.Fatal("readSnapshot accepted records under the wrong fingerprint")
			}
		}
	})
}

// FuzzDecodeLengths drives the payload decoder through systematically
// corrupted count fields of an otherwise valid record: every u32 of the
// payload is overwritten with the fuzzed value, below the base64 and the
// log CRC, so the mutation always reaches the record parser.
func FuzzDecodeLengths(f *testing.F) {
	base := rawRecord(0xfeedbeefcafe, &testSnapshot().Records[0])
	f.Add(uint32(12), uint32(0xffffffff))
	f.Add(uint32(16), uint32(0x7fffffff))
	f.Add(uint32(20), uint32(1))
	f.Fuzz(func(t *testing.T, off, val uint32) {
		data := append([]byte(nil), base...)
		if int(off)+4 > len(data) {
			return
		}
		binary.LittleEndian.PutUint32(data[off:], val)
		rec, _, err := decodePayload("fuzz", 1, data, 0)
		if err == nil && rec.Result == nil && !rec.Failed {
			t.Fatal("decodePayload accepted a record with neither result nor failure")
		}
	})
}
