package workload

import (
	"fmt"
	"slices"
)

// named pairs a workload's name with the constructor that builds it, a
// fresh value on every call (callers may edit what they get).
type named struct {
	name  string
	build func() Workload
}

// units lists the 18 analysis units of the paper's figures, in the
// calibration-table order: every individually plotted benchmark, with
// Antutu split into its four segments and GFXBench grouped into its three
// categories.
var units = []named{
	{NameSlingshot, Slingshot},
	{NameSlingshotExtreme, SlingshotExtreme},
	{NameWildLife, WildLife},
	{NameWildLifeExtreme, WildLifeExtreme},
	{NameAntutuCPU, AntutuCPUSegment},
	{NameAntutuGPU, AntutuGPUSegment},
	{NameAntutuMem, AntutuMemSegment},
	{NameAntutuUX, AntutuUXSegment},
	{NameAitutu, Aitutu},
	{NameGB5CPU, GB5CPU},
	{NameGB5Compute, GB5Compute},
	{NameGB6CPU, GB6CPU},
	{NameGB6Compute, GB6Compute},
	{NameGFXHigh, GFXHigh},
	{NameGFXLow, GFXLow},
	{NameGFXSpecial, GFXSpecial},
	{NamePCMarkStorage, PCMarkStorage},
	{NamePCMarkWork, PCMarkWork},
}

// constructors maps every analysis-unit and executable name to its
// constructor, so ByName builds only the workload it returns.
var constructors = func() map[string]func() Workload {
	m := map[string]func() Workload{nameAntutu: AntutuFull}
	for _, u := range units {
		m[u.name] = u.build
	}
	for _, s := range slices.Concat(highScenes, lowScenes) {
		m[gfxPrefix+s.name] = func() Workload { return sceneWorkload(s) }
	}
	for _, s := range specialScenes {
		m[gfxPrefix+s.name] = func() Workload { return specialWorkload(s) }
	}
	return m
}()

// AnalysisUnits returns the 18 analysis units in the calibration-table
// order (see units).
func AnalysisUnits() []Workload {
	out := make([]Workload, len(units))
	for i, u := range units {
		out[i] = u.build()
	}
	return out
}

// Executables returns the 41 sub-benchmarks a user can launch
// independently: the 4 3DMark tests, Antutu as a whole (its components are
// not individually runnable), Aitutu, the 2+2 Geekbench benchmarks, all 29
// GFXBench micro-benchmarks and the 2 PCMark benchmarks.
func Executables() []Workload {
	out := []Workload{
		Slingshot(),
		SlingshotExtreme(),
		WildLife(),
		WildLifeExtreme(),
		AntutuFull(),
		Aitutu(),
		GB5CPU(),
		GB5Compute(),
		GB6CPU(),
		GB6Compute(),
	}
	out = append(out, GFXHighScenes()...)
	out = append(out, GFXLowScenes()...)
	out = append(out, GFXSpecialScenes()...)
	out = append(out, PCMarkStorage(), PCMarkWork())
	return out
}

// ByName returns a fresh copy of the analysis unit or executable with the
// given name, building no other workload.
func ByName(name string) (Workload, error) {
	if build, ok := constructors[name]; ok {
		return build(), nil
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the names of the analysis units in figure order.
func Names() []string {
	out := make([]string, len(units))
	for i, u := range units {
		out[i] = u.name
	}
	return out
}
