package core

// WithAsyncCommit, WriteAsync, Commit and Close survive only because the
// repository benchmark's camera workload (perfbench/camera.go, frozen with
// BENCHMARK.json) still calls them. Every write goes through Write; the
// per-bank group-commit pipeline these names once fronted lost host time
// to serial Write on every measured drive (DESIGN.md §10). The follow-up
// that moves camera onto Write deletes this file.

// WithAsyncCommit has no effect.
func WithAsyncCommit(depth int) Option { return func(*Device) {} }

// Commit is the already-resolved result of one WriteAsync call.
type Commit struct{ err error }

// Wait returns the write's error.
func (c Commit) Wait() error { return c.err }

// WriteAsync is Write with its error wrapped in a Commit.
func (d *Device) WriteAsync(addr int, data []byte) Commit {
	return Commit{err: d.Write(addr, data)}
}

// Close returns nil.
func (d *Device) Close() error { return nil }
