//go:build !race

package kv

// raceBuild reports a -race build, whose instrumentation allocates: the
// allocation bounds skip there.
const raceBuild = false
