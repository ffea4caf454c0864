//go:build race

package stegdb

// raceEnabled reports whether the race detector is instrumenting this build;
// its shadow-memory bookkeeping allocates, so alloc-count gates must skip.
const raceEnabled = true
