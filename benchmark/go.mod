// The benchmark is a module of its own so that it builds from this
// directory alone; the path prefix hipmer/ lets it import the assembler's
// internal packages, which it measures from outside.
module hipmer/benchmark

go 1.22

require hipmer v0.0.0

replace hipmer => ../
