package serve

import (
	"runtime"

	"factorml/internal/metrics"
)

// Version identifies the serving build in /statsz, /healthz and the
// factorml_build_info metric, so a fleet replica can report what it is
// running. Bump alongside releases.
const Version = "0.7.0"

// BuildInfo is the build identity, the "build" section of /statsz.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// CurrentBuild returns this binary's build identity.
func CurrentBuild() BuildInfo {
	return BuildInfo{Version: Version, GoVersion: runtime.Version()}
}

// Samples emits the constant factorml_build_info{version,go_version} 1
// gauge fleet debugging keys on.
func (b BuildInfo) Samples(emit metrics.Emit) {
	emit.Gauge("factorml_build_info", "Build identity; the value is always 1, the labels carry the versions.",
		1, [2]string{"version", b.Version}, [2]string{"go_version", b.GoVersion})
}

// uptime is the top-level "uptime_seconds" of /statsz.
type uptime struct {
	Seconds float64 `json:"uptime_seconds"`
}

func (u uptime) Samples(emit metrics.Emit) {
	emit.Gauge("factorml_uptime_seconds", "Seconds since the server was constructed.", u.Seconds)
}
