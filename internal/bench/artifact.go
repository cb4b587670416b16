package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Artifacts are the BENCH_*.json files committed at the repo root: the
// machine-readable results other tooling (CI, dashboards, regression
// diffing) consumes. Each is one experiment's report struct rendered by
// WriteArtifact, so the struct is the schema, and the report's Check method
// holds the invariants the artifact exists to witness — a crash campaign
// with violations or a lifetime report whose managed configuration is not
// at least 2× the unmanaged baseline is not a valid artifact, whatever its
// JSON looks like.

// Report is the typed content of one artifact.
type Report interface {
	// Check reports the first invariant the report violates, if any.
	Check() error
}

// Artifact is one registered BENCH_<Kind>.json result.
type Artifact struct {
	Kind string
	New  func() Report                // an empty report to decode into
	Run  func(Config) (Report, error) // runs the experiment behind it
}

// Artifacts lists every artifact a repo checkout carries, in the order
// flipbit -benchjson writes them.
func Artifacts() []Artifact {
	return []Artifact{
		{"writepath", func() Report { return new(WritePathReport) }, func(c Config) (Report, error) { return RunWritePath(c) }},
		{"crashcampaign", func() Report { return new(CrashCampaignReport) }, func(c Config) (Report, error) { return RunCrashCampaign(c) }},
		{"transient", func() Report { return new(TransientReport) }, func(c Config) (Report, error) { return RunTransient(c) }},
		{"lifetime", func() Report { return new(LifetimeReport) }, func(c Config) (Report, error) { return RunLifetime(c) }},
		{"encode", func() Report { return new(EncodeKernelReport) }, func(c Config) (Report, error) { return RunEncodeKernel(c) }},
		{"kvscale", func() Report { return new(KVScaleReport) }, func(c Config) (Report, error) { return RunKVScale(c) }},
		{"inflash", func() Report { return new(InflashReport) }, func(c Config) (Report, error) { return RunInflash(c) }},
	}
}

// WriteArtifact renders rep as indented JSON, the one format every
// artifact is committed in.
func WriteArtifact(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// artifactOf returns the registered artifact of the named kind.
func artifactOf(kind string) (Artifact, error) {
	for _, a := range Artifacts() {
		if a.Kind == kind {
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("unknown artifact kind %q", kind)
}

// ValidateArtifact decodes data into the report of the named kind,
// rejecting unknown fields, requires WriteArtifact to reproduce data byte
// for byte — so a missing, reordered or reformatted field fails too — and
// then runs the report's Check.
func ValidateArtifact(kind string, data []byte) error {
	a, err := artifactOf(kind)
	if err != nil {
		return err
	}
	rep := a.New()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rep); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, rep); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if out := buf.Bytes(); !bytes.Equal(out, data) {
		n := 0
		for n < len(out) && n < len(data) && out[n] == data[n] {
			n++
		}
		return fmt.Errorf("%s: line %d differs from the report's own encoding (missing or non-canonical field)",
			kind, 1+bytes.Count(data[:n], []byte("\n")))
	}
	if err := rep.Check(); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}
