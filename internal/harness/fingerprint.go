package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// ResultsVersion numbers the generation of the registered campaign kinds'
// job results. Bump it whenever a kind's jobs compute different results
// from the same spec and seed. It enters every journal fingerprint, so a
// journal written before the change is refused instead of resumed into
// the new results, and the dist handshake, so a worker built before it is
// refused instead of serving the old ones. Version 1 is the first to
// carry it: the slowdown, ablation and correction jobs run on the
// campaign seed. Version 2: a fault campaign's device counters cover only
// the pool lines its trials visit, and a zero warm-up in a slowdown or
// multicore spec runs no warm-up instead of the default one.
const ResultsVersion = 2

// Fingerprint canonicalises a campaign's identity for the checkpoint
// journal: the campaign kind, the campaign seed, the results version, and
// a digest of the spec's JSON form. Those things determine every job key
// and every job result, so they are exactly what makes two runs "the same
// campaign".
//
// Execution knobs are deliberately excluded: worker count, backend
// (local pool vs distributed coordinator), journal path, timeouts, and
// retry policy change how the campaign runs, never what it computes. A
// journal written by a single-process run therefore resumes under the
// multi-process `proc` backend (and vice versa) at any worker count, and
// the merged report stays byte-identical — the guarantee the
// cross-backend determinism tests pin.
func Fingerprint(kind string, seed uint64, spec any) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		// Unmarshalable specs (channels, cycles) don't occur in practice;
		// fall back to the printf form so the fingerprint stays a pure
		// function of the spec value rather than failing open.
		raw = []byte(fmt.Sprintf("%+v", spec))
	}
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("%s seed=%d results=v%d spec=%x", kind, seed, ResultsVersion, sum[:12])
}
