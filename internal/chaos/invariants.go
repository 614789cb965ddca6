package chaos

import (
	"fmt"
	"io"
	"sort"
)

// CheckResult is one invariant verdict inside a Report.
type CheckResult struct {
	Name   string
	Pass   bool
	Detail string
}

// Report collects the invariant verdicts of one chaos run. Its text
// rendering contains only script-determined values — counts, booleans,
// shard indexes, canonical key strings — never timings, addresses or
// map-ordered output, so two runs of the same script over the same
// workload render byte-identical reports. That property is itself a
// gate: `quq-shard -chaos` replays every script twice and fails on any
// byte difference.
type Report struct {
	Script  string
	Seed    uint64
	Results []CheckResult
}

// NewReport starts an empty report for one script run.
func NewReport(script string, seed uint64) *Report {
	return &Report{Script: script, Seed: seed}
}

// Add records one verdict.
func (r *Report) Add(name string, pass bool, format string, args ...any) {
	r.Results = append(r.Results, CheckResult{
		Name:   name,
		Pass:   pass,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Failed reports whether any check failed.
func (r *Report) Failed() bool {
	for _, c := range r.Results {
		if !c.Pass {
			return true
		}
	}
	return false
}

// WriteText renders the report deterministically, one verdict per line.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "chaos script %s (seed %d)\n", r.Script, r.Seed); err != nil {
		return err
	}
	for _, c := range r.Results {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "  %-24s %-4s %s\n", c.Name, verdict, c.Detail); err != nil {
			return err
		}
	}
	return nil
}

// CheckConservation asserts reply conservation: every request sent got
// exactly one terminal answer, and the backends completed exactly as
// many requests as clients saw succeed — a completed backend response
// that reached no client is a lost reply, more completions than client
// successes is a double answer.
func (r *Report) CheckConservation(sent, answered, completions, clientOK int) {
	pass := sent == answered && completions == clientOK
	r.Add("reply-conservation", pass,
		"sent=%d answered=%d backend-completions=%d client-ok=%d", sent, answered, completions, clientOK)
}

// CheckCalibrateOnce asserts QUQ's calibrate-once contract: each key's
// calibration ran the expected number of times fleet-wide (1 in the
// steady state; a key whose first build legitimately failed and was
// retried expects its retry count).
func (r *Report) CheckCalibrateOnce(builds map[string]int, want map[string]int) {
	keys := make([]string, 0, len(builds))
	for k := range builds {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := builds[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	pass := true
	detail := ""
	for _, k := range keys {
		w := want[k]
		if w == 0 {
			w = 1
		}
		if builds[k] != w {
			pass = false
		}
		if detail != "" {
			detail += " "
		}
		detail += fmt.Sprintf("%s=%d/%d", k, builds[k], w)
	}
	r.Add("calibrate-exactly-once", pass, "builds got/want: %s", detail)
}

// CheckNeverRetried asserts the backpressure contract: for a workload
// of sent requests that were all answered with 429, the backends saw
// exactly sent attempts (a retried 429 shows up as extra attempts) and
// every client response carried the backend's verbatim status and
// Retry-After header.
func (r *Report) CheckNeverRetried(sent, attempts, got429, gotRetryAfter int) {
	pass := attempts == sent && got429 == sent && gotRetryAfter == sent
	r.Add("429-never-retried", pass,
		"sent=%d backend-attempts=%d client-429s=%d retry-after-kept=%d", sent, attempts, got429, gotRetryAfter)
}

// CheckBoundedRemap asserts the consistent-hashing remap bound across
// an eject/re-admit cycle: while the victim shard was ejected, only the
// keys it owned moved (everything else kept its owner), and after
// re-admission every key returned to its original owner.
func (r *Report) CheckBoundedRemap(before, during, after map[string]int, victim int) {
	keys := make([]string, 0, len(before))
	for k := range before {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	victimKeys, movedForeign, unrestored := 0, 0, 0
	for _, k := range keys {
		if before[k] == victim {
			victimKeys++
		} else if during[k] != before[k] {
			movedForeign++
		}
		if after[k] != before[k] {
			unrestored++
		}
	}
	pass := movedForeign == 0 && unrestored == 0
	r.Add("bounded-remap", pass,
		"keys=%d victim-owned=%d foreign-moved=%d unrestored=%d", len(keys), victimKeys, movedForeign, unrestored)
}

// CheckBoundedDrain asserts the drain contract: drain finished inside
// its deadline and every admitted item was answered (success or error —
// an item still unanswered after drain is a lost reply).
func (r *Report) CheckBoundedDrain(withinDeadline bool, admitted, finished int) {
	pass := withinDeadline && admitted == finished
	r.Add("bounded-drain", pass,
		"within-deadline=%v admitted=%d finished=%d", withinDeadline, admitted, finished)
}

// CheckCalibrateAtMostR is calibrate-exactly-once generalized to a
// replicated fleet: each key's calibration ran at least once (it was
// served) and at most R times fleet-wide — one build per replica owner,
// never a smear onto non-owners or a per-request rebuild.
func (r *Report) CheckCalibrateAtMostR(builds map[string]int, rFactor int) {
	keys := make([]string, 0, len(builds))
	for k := range builds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pass := len(keys) > 0
	detail := ""
	for _, k := range keys {
		if builds[k] < 1 || builds[k] > rFactor {
			pass = false
		}
		if detail != "" {
			detail += " "
		}
		detail += fmt.Sprintf("%s=%d", k, builds[k])
	}
	r.Add("calibrate-at-most-r", pass, "r=%d builds: %s", rFactor, detail)
}

// CheckReplicasIdentical asserts replica determinism: the same classify
// served directly by each of a key's replica owners returned
// byte-identical responses. Divergent replicas would make a failover
// visible to clients as a silent answer change.
func (r *Report) CheckReplicasIdentical(replicas int, identical bool) {
	r.Add("replicas-identical", identical, "replicas=%d byte-identical=%v", replicas, identical)
}

// CheckZeroLostKeys asserts the replicated-failover contract: after
// killing one replica owner, every read of its calibrated keys was
// answered by a survivor (reads-ok counts only responses NOT served by
// the victim) with zero new calibrations — the surviving replica
// already holds the artifact.
func (r *Report) CheckZeroLostKeys(reads, readsOK, newBuilds int) {
	pass := readsOK == reads && newBuilds == 0
	r.Add("zero-lost-keys", pass,
		"reads=%d reads-ok=%d new-builds=%d", reads, readsOK, newBuilds)
}

// CheckLatencySLO asserts the occupancy-adaptive scheduling contract
// over an overload script: every admitted request finished inside its
// latency budget (admission control refused the rest up front), the
// script's one overload probe was shed exactly once — zero means
// shedding never fired, two means something re-sent the shed request —
// shed requests consumed no queue capacity, and the governor both
// lowered the per-batch worker budget under load and raised it back at
// low occupancy (workerPath is the script-observed allocation sequence).
// merged asserts the shed counter surfaced through the fleet's merged
// /metrics view.
func (r *Report) CheckLatencySLO(admitted, withinBudget, shed, shedQueueSlots int, workerPath []int, merged bool) {
	lowered, raised := false, false
	for i := 1; i < len(workerPath); i++ {
		if workerPath[i] < workerPath[i-1] {
			lowered = true
		}
		if workerPath[i] > workerPath[i-1] {
			raised = true
		}
	}
	pass := admitted == withinBudget && shed == 1 && shedQueueSlots == 0 &&
		lowered && raised && merged
	r.Add("latency-slo", pass,
		"admitted=%d within-budget=%d shed=%d shed-queue-slots=%d workers=%v lowered=%v raised=%v merged-metrics=%v",
		admitted, withinBudget, shed, shedQueueSlots, workerPath, lowered, raised, merged)
}

// CheckElasticMembership asserts the membership subsystem's contract
// over a join/drain/leave sequence: the epoch advanced strictly
// monotonically (every effective mutation visible, none reordered), the
// drain re-homed at least one calibrated key, and no key was lost — the
// drained member's keys kept serving warm, without recalibration.
func (r *Report) CheckElasticMembership(epochs []uint64, moved, lost int) {
	monotonic := len(epochs) > 1
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			monotonic = false
		}
	}
	pass := monotonic && moved >= 1 && lost == 0
	r.Add("elastic-membership", pass,
		"epochs=%v moved=%d lost=%d", epochs, moved, lost)
}

// CheckWarmRestart asserts the durability contract over a crash-restart
// script: a worker killed and restarted against its snapshot dir comes
// back holding every previously-calibrated key (restored counts the
// snapshot entries it reloaded), requests that raced the warm-restart
// window were told to retry (warming503 — the retryable 503 contract,
// never a stale 404 or a spurious rebuild), every post-restart read of a
// warm key succeeded, zero new calibration builds ran fleet-wide, and
// the restored entries' digests are byte-identical to the pre-crash
// ones.
func (r *Report) CheckWarmRestart(restored, reads, readsOK, newBuilds int, warming503, digestsStable bool) {
	pass := restored >= 1 && readsOK == reads && newBuilds == 0 && warming503 && digestsStable
	r.Add("warm-restart-zero-recalibration", pass,
		"restored=%d reads=%d reads-ok=%d new-builds=%d warming-503=%v digests-stable=%v",
		restored, reads, readsOK, newBuilds, warming503, digestsStable)
}

// CheckCorruptionQuarantined asserts the verification contract over a
// snapshot-corruption script: a worker restarted over a corrupted
// snapshot file quarantines it (quarantined is its own count of
// rejected files), stays alive (healthy), and never serves the corrupt
// payload — the damaged key is simply absent from its registry
// (servedCorrupt must be zero).
func (r *Report) CheckCorruptionQuarantined(quarantined int, healthy bool, servedCorrupt int) {
	pass := quarantined >= 1 && healthy && servedCorrupt == 0
	r.Add("corruption-quarantined", pass,
		"quarantined=%d healthy=%v served-corrupt=%d", quarantined, healthy, servedCorrupt)
}

// CheckAntiEntropyConverges asserts the self-healing contract: the
// sweep saw the divergence (mismatches), repaired every divergent owner
// (repairs, no failures), left all R owners of every key holding one
// digest (converged), and did it all by copying state — zero new
// calibration builds.
func (r *Report) CheckAntiEntropyConverges(mismatches, repairs, failures, newBuilds int, converged bool) {
	pass := mismatches >= 1 && repairs == mismatches && failures == 0 && newBuilds == 0 && converged
	r.Add("antientropy-converges", pass,
		"mismatches=%d repairs=%d failures=%d new-builds=%d converged=%v",
		mismatches, repairs, failures, newBuilds, converged)
}
