//go:build !race

package fidelius

// raceBuild reports a -race build (see skipInstrumented).
const raceBuild = false
