// Streaming metrics: periodic counter snapshots from long-running
// work (the cache simulators' SetSampler hooks), so a multi-minute
// experiment run with -v prints live progress lines instead of going
// dark between span completions. Spans measure completed work;
// metrics stream work in flight.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// EmitMetrics streams one snapshot — a source label ("sim:b64") and
// its counters — to this recorder's progress stream as one line, keys
// sorted, when the recorder is verbose. It is nil-safe and may run on
// any goroutine.
func (r *Recorder) EmitMetrics(source string, counters map[string]int64) {
	if r == nil || !r.Verbose {
		return
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, counters[k])
	}
	fmt.Fprintf(r.logw(), "obs: metrics %s%s\n", source, sb.String())
}
