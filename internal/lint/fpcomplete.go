package lint

import (
	"go/types"
	"strings"
)

// FpComplete checks fingerprint pre-image completeness: every field of a
// cache-identity struct (server.Spec, core.Options) must either be read
// — directly or transitively — by the struct's configured pre-image
// builders (Spec.CacheKey, Options.CheckpointCanonical) or sit on the
// rule's execution-only allowlist. This is PR 7's incident class: a
// result-affecting spec field missing from the cache-key pre-image
// silently widens cache hits, so two different jobs serve each other's
// bytes. Coverage comes from the cross-package FieldRefs facts, so a
// builder delegating to helpers (CacheKey → specOptions →
// CheckpointCanonical) still counts every field the closure touches.
//
// The check is deliberately one-sided: a field the builder closure
// merely validates also counts as covered, so fpcomplete cannot prove a
// field reaches the hash — only that a brand-new field was not
// forgotten entirely, which is exactly how the PR 7 bug shipped.
var FpComplete = &Analyzer{
	Name: "fpcomplete",
	Doc: "require every field of a cache-identity struct (server.Spec, core.Options) to be " +
		"referenced by its fingerprint pre-image builders or listed as an execution-only " +
		"knob; an unreferenced field silently widens cache hits.",
	Run: runFpComplete,
}

func runFpComplete(pass *Pass) error {
	if pass.Facts == nil {
		return nil
	}
	pass.Facts.summarize(pass)
	for _, rule := range pass.Config.Fingerprint {
		checkRule(pass, rule)
	}
	return nil
}

// checkRule evaluates one fingerprint rule in the package that declares
// its builders; packages without any of the builders are out of scope.
func checkRule(pass *Pass, rule FingerprintRule) {
	var builders []*types.Func
	for _, key := range rule.Builders {
		if fn := lookupFuncKey(pass.Pkg, key); fn != nil {
			builders = append(builders, fn)
		}
	}
	if len(builders) == 0 {
		return
	}
	st := findRuleStruct(pass.Pkg, rule)
	if st == nil {
		return
	}

	covered := make(map[string]bool)
	for _, b := range builders {
		if ff := pass.Facts.FactsFor(b); ff != nil {
			for _, f := range ff.FieldRefs[rule.Struct] {
				covered[f] = true
			}
		}
	}
	allow := make(map[string]bool, len(rule.Allow))
	for _, f := range rule.Allow {
		allow[f] = true
	}

	under, ok := st.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < under.NumFields(); i++ {
		field := under.Field(i)
		if covered[field.Name()] || allow[field.Name()] {
			continue
		}
		pos := field.Pos()
		if pass.Fset.Position(pos).Filename == "" || field.Pkg() != pass.Pkg {
			// Struct declared elsewhere: anchor at the first builder.
			pos = builders[0].Pos()
		}
		pass.Reportf(pos,
			"field %s of %s is not referenced from its fingerprint pre-image builder%s (%s) and is not on the execution-only allowlist; a result-affecting field missing from the pre-image silently widens cache hits — read it in the pre-image, or add it to the rule's allow list",
			field.Name(), rule.Struct, plural(rule.Builders), strings.Join(rule.Builders, ", "))
	}
}

func plural(s []string) string {
	if len(s) > 1 {
		return "s"
	}
	return ""
}

// lookupFuncKey resolves a function key ("CacheKey" or "Spec.CacheKey")
// in pkg's scope, methods included.
func lookupFuncKey(pkg *types.Package, key string) *types.Func {
	if pkg == nil {
		return nil
	}
	typeName, method, isMethod := strings.Cut(key, ".")
	if !isMethod {
		if fn, ok := pkg.Scope().Lookup(key).(*types.Func); ok {
			return fn
		}
		return nil
	}
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// findRuleStruct locates the rule's struct type: in the current package
// first, then among its direct imports (the builder may live beside the
// struct, as CacheKey does, or import it).
func findRuleStruct(pkg *types.Package, rule FingerprintRule) *types.TypeName {
	i := strings.LastIndex(rule.Struct, ".")
	if i < 0 {
		return nil
	}
	name := rule.Struct[i+1:]
	candidates := append([]*types.Package{pkg}, pkg.Imports()...)
	for _, p := range candidates {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if ok && rule.matchesType(tn) {
			return tn
		}
	}
	return nil
}
