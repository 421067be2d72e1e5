package kanalysis

// SplitReads lets the external test package (golden_test.go, which must be
// external to import internal/ckpt) deal reads to ranks as the in-package
// tests do.
var SplitReads = splitReads
