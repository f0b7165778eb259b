package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
)

// TestTraceDigests pins every bit a run produces: the trace's metric names
// in first-sampled order (the order checkpoints persist), every sample of
// every series, and every aggregate field. The cases cover a graphics unit,
// a CPU-heavy unit, a unit whose Mid and Big clusters are idle at tick 0
// (so their IPC and MPKI series are created inside the per-cluster sample
// block rather than before it), and a platform without a Big cluster, each
// exact and fast-forwarded. An intended change to the tick moves these
// digests; update them together with a CHANGES.md line naming the reason.
func TestTraceDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; on %s the compiler may fuse x*y+z into one FMA instruction, which rounds differently", runtime.GOARCH)
	}
	unit := func(name string) workload.Workload {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		name       string
		plat       *soc.Platform
		w          workload.Workload
		exact, ffw string
	}{
		{"wildlife", nil, unit("3DMark Wild Life"),
			"7ebdfdfb0149459aa91b32da3baf87e7cb2bbf07113280e4637c342254eb1422",
			"49dbba3503c55154cd964e99d2673a8275883876898dfbe81fed174e4cc0beca"},
		{"antutu-cpu", nil, unit("Antutu CPU"),
			"7766de6aa01b53dd1cfcb24ab302d78d97d76cb5388af727913805b50338ee00",
			"e8a7a8f4415e4b313ca3329b8a389590b18bbe37ff6a3a51709e6bb0eed19e2d"},
		{"pcmark-storage", nil, unit("PCMark Storage"),
			"2265399450718a30193087e94bb1062ec2b09b8087a979f2d2cec391c6d2ebc5",
			"cd8e121b31142874d3572e59e843dc43566bcb49015a8cb4137a500659b41cec"},
		{"tiny-midrange", soc.Midrange750G(), tinyWorkload(),
			"ed28782c2b593092b3564496f31e645807af05545356aec7f3802b6d670f4b05",
			"4edd0028c0ddf84c99c70ea8b9d1913bd293caf33511debf9501052f1110f728"},
	} {
		for _, ff := range []bool{false, true} {
			want, mode := tc.exact, "exact"
			if ff {
				want, mode = tc.ffw, "fast-forward"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				res, err := MustNew(Config{Platform: tc.plat, FastForward: ff}).Run(tc.w, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := runDigest(res); got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}

// runDigest is SHA-256 over each metric's name and the IEEE bits of its
// samples, in trace order, then the IEEE bits of every aggregate field.
func runDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	word := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, name := range res.Trace.Metrics() {
		h.Write([]byte(name))
		h.Write([]byte{0})
		for _, v := range res.Trace.MustSeries(name).Values {
			word(v)
		}
	}
	for _, p := range res.Agg.Fields() {
		word(*p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
