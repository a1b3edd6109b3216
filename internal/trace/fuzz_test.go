package trace

import (
	"bytes"
	"strings"
	"testing"
)

// validV1Trace is a schema-v1 corpus seed covering both line shapes,
// message kinds, and the fault-loss/drop-fault pairing.
const validV1Trace = `{"chunk":0,"label":"fig6.centaur","seed":42}
{"t":10,"k":"send","f":1,"o":2,"m":"centaur.update","u":1,"b":40}
{"t":12,"k":"deliver","f":1,"o":2,"m":"centaur.update","u":1,"b":40}
{"t":13,"k":"link-down","f":1,"o":2}
{"t":14,"k":"route","f":2,"o":9}
{"t":15,"k":"fault-loss","f":2,"o":3,"m":"bgp.update","u":1,"b":34}
{"t":16,"k":"drop-fault","f":2,"o":3,"m":"bgp.update","u":1,"b":34}
{"chunk":1,"label":"fig7.ospf","seed":43}
{"t":1,"k":"crash","f":5,"o":5}
{"t":2,"k":"restart","f":5,"o":5}
`

// validV2Trace is a schema-v2 corpus seed exercising spans, parents,
// depths, and next-hop annotations.
const validV2Trace = `{"chunk":0,"v":2,"label":"fig6.centaur","seed":42}
{"t":10,"k":"link-down","f":1,"o":2,"c":1,"d":0}
{"t":10,"k":"send","f":1,"o":3,"m":"centaur.update","u":1,"b":40,"c":2,"p":1,"d":1}
{"t":12,"k":"deliver","f":1,"o":3,"m":"centaur.update","u":1,"b":40,"c":3,"p":2,"d":1}
{"t":12,"k":"route","f":3,"o":2,"c":4,"p":3,"d":1,"oh":1,"nh":0}
{"t":13,"k":"send","f":3,"o":4,"m":"centaur.update","u":1,"b":40,"c":5,"p":3,"d":2}
{"t":15,"k":"deliver","f":3,"o":4,"m":"centaur.update","u":1,"b":40,"c":6,"p":5,"d":2}
{"t":15,"k":"route","f":4,"o":2,"c":7,"p":6,"d":2,"oh":0,"nh":3}
{"t":20,"k":"link-up","f":1,"o":2,"c":8,"p":1,"d":0}
`

// validAdvTrace is a schema-v2 corpus seed with the adversarial event
// kinds: an adv-inject root (the pre-run attack attachment) whose
// contaminated deliveries chain down to an adv-bad annotation on the
// route span that installed the bad entry.
const validAdvTrace = `{"chunk":0,"v":2,"label":"adv.centaur","seed":7}
{"t":0,"k":"adv-inject","f":9,"o":2,"c":1,"d":0}
{"t":5,"k":"send","f":9,"o":3,"m":"centaur.update","u":1,"b":40,"c":2,"p":1,"d":1}
{"t":7,"k":"deliver","f":9,"o":3,"m":"centaur.update","u":1,"b":40,"c":3,"p":2,"d":1}
{"t":7,"k":"route","f":3,"o":2,"c":4,"p":3,"d":1,"oh":0,"nh":9}
{"t":7,"k":"adv-bad","f":3,"o":2,"c":5,"p":3,"d":1}
`

// TestFuzzSeedsValidate pins the corpus seeds as genuinely valid: a
// seed the validator rejects exercises nothing.
func TestFuzzSeedsValidate(t *testing.T) {
	for name, trace := range map[string]string{
		"v1": validV1Trace, "v2": validV2Trace, "adv": validAdvTrace,
	} {
		if _, err := Validate(strings.NewReader(trace)); err != nil {
			t.Errorf("%s seed rejected: %v", name, err)
		}
	}
}

// FuzzValidateTrace: the validator and Explain, which reads through it,
// must never panic. The validator must stay consistent — anything it
// accepts, it accepts again byte-for-byte, and the summary counts match
// a re-validation. Explain must reject what the validator rejects, with
// the same error, and accept what it accepts when every chunk is v2.
func FuzzValidateTrace(f *testing.F) {
	f.Add([]byte(validV1Trace))
	f.Add([]byte(validV2Trace))
	f.Add([]byte(validV1Trace + validV2Trace[strings.Index(validV2Trace, "\n")+1:]))
	f.Add([]byte(`{"chunk":0,"v":2,"label":"","seed":0}` + "\n"))
	f.Add([]byte(`{"t":1,"k":"send"}`))
	f.Add([]byte("\n\n"))
	// Mutations the fuzzer should explore from: broken parent, v3, stray
	// provenance in v1.
	f.Add([]byte(strings.Replace(validV2Trace, `"p":2`, `"p":99`, 1)))
	f.Add([]byte(strings.Replace(validV2Trace, `"v":2`, `"v":3`, 1)))
	f.Add([]byte(strings.Replace(validV1Trace, `"k":"route","f":2,"o":9`, `"k":"route","f":2,"o":9,"c":1,"d":0`, 1)))
	// Adversarial kinds: the valid chain, an adv-inject at nonzero
	// depth (must reject — it is a root kind), an adv-bad orphaned from
	// its route span, and adv-inject in a v1 chunk (legal: kinds are
	// version-independent, provenance is not).
	f.Add([]byte(validAdvTrace))
	f.Add([]byte(strings.Replace(validAdvTrace, `"k":"adv-inject","f":9,"o":2,"c":1,"d":0`, `"k":"adv-inject","f":9,"o":2,"c":1,"d":1`, 1)))
	f.Add([]byte(strings.Replace(validAdvTrace, `"k":"adv-bad","f":3,"o":2,"c":5,"p":3,"d":1`, `"k":"adv-bad","f":3,"o":2,"c":5,"p":77,"d":1`, 1)))
	f.Add([]byte(validV1Trace + `{"t":20,"k":"adv-inject","f":9,"o":2}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := Validate(bytes.NewReader(data))
		_, xerr := Explain(bytes.NewReader(data))
		if err != nil {
			if xerr == nil || xerr.Error() != err.Error() {
				t.Fatalf("validator rejected with %v, Explain with %v", err, xerr)
			}
			return
		}
		if sum.ProvenanceChunks == sum.Chunks && xerr != nil {
			t.Fatalf("valid all-v2 trace rejected by Explain: %v", xerr)
		}
		sum2, err2 := Validate(bytes.NewReader(data))
		if err2 != nil {
			t.Fatalf("accepted once, rejected twice: %v", err2)
		}
		if sum.Chunks != sum2.Chunks || sum.Events != sum2.Events ||
			sum.ProvenanceChunks != sum2.ProvenanceChunks ||
			sum.UnconsumedLossDecisions != sum2.UnconsumedLossDecisions {
			t.Fatalf("summaries differ: %+v vs %+v", sum, sum2)
		}
		total := 0
		for _, n := range sum.ByKind {
			total += n
		}
		if total != sum.Events {
			t.Fatalf("ByKind sums to %d, Events = %d", total, sum.Events)
		}
	})
}
