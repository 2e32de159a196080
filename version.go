package mtls

import (
	"runtime"

	"repro/internal/distrib"
)

// Version identifies this build of the facade; daemons report it on
// /api/v1/version so a fleet operator can see what is deployed.
const Version = "0.7.0"

// Info is the build identity served by /api/v1/version: who is
// answering, what it was built from, and which snapshot schemas it
// serves and decodes — one, schema 2, which an aggregator asks every
// sensor for; an operator staging an upgrade reads it here.
type Info struct {
	Service         string `json:"service"`
	Version         string `json:"version"`
	Go              string `json:"go"`
	SnapshotSchemas []int  `json:"snapshot_schemas"`
}

// BuildInfo describes this build for the named service.
func BuildInfo(service string) Info {
	return Info{
		Service:         service,
		Version:         Version,
		Go:              runtime.Version(),
		SnapshotSchemas: distrib.SupportedSchemas(),
	}
}
