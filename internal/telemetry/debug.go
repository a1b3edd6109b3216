// Live introspection endpoint: expvar metrics plus net/http/pprof
// profiling for long harness runs.

package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
	"sync"
	"sync/atomic"
)

// debugReg is the registry the published expvar reads; ServeDebug
// installs it. expvar.Publish is once-only per process (republishing a
// name panics), so the var indirects through this pointer instead.
var (
	publishOnce sync.Once
	debugReg    atomic.Pointer[Registry]
)

// publishExpvar exposes r under the expvar name "telemetry"; subsequent
// calls retarget the existing var at the new registry.
func publishExpvar(r *Registry) {
	if r != nil {
		debugReg.Store(r)
	}
	publishOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return debugReg.Load().Snapshot()
		}))
	})
}

// ServeDebug starts an HTTP debug server on addr (e.g. "localhost:6060"
// or ":0" for an ephemeral port) exposing:
//
//   - /debug/vars — expvar JSON: the registry snapshot under
//     "telemetry", plus the expvar package's standard "memstats" and
//     "cmdline"
//   - /debug/pprof/... — the standard pprof profiles (heap, profile,
//     goroutine, trace, ...)
//   - /telemetryz — the live registry snapshot alone, as indented JSON
//     (the same object /debug/vars nests under "telemetry"; handier for
//     curl | jq and dashboards that poll one metric tree)
//
// It returns the bound address (useful with ":0") and a stop function
// that closes the listener. The registry may be nil, in which case the
// "telemetry" var and /telemetryz render null.
func ServeDebug(addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug listener: %w", err)
	}
	publishExpvar(r)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/telemetryz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data = append(data, '\n')
		w.Write(data) //nolint:errcheck // best-effort debug endpoint
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after stop
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// StartProfiles starts CPU profiling into cpu and arranges a heap
// snapshot into mem (either empty = off) for the command prog; the
// returned stop function finishes both and is safe to call once. A bad
// cpu path fails here; a bad mem path only warns on stderr at stop.
func StartProfiles(prog, cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			rpprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", prog, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before the snapshot
			if err := rpprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", prog, err)
			}
		}
	}, nil
}
