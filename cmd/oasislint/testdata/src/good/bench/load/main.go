// Command load stands in for bench/oasisload.
package main

import "oasis/cmd/oasislint/testdata/src/good/lib"

func main() { lib.BenchHeld() }
