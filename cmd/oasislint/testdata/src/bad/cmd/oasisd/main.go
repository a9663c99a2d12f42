// Command oasisd is the L007 fixture's entry point: what it imports is
// what "the daemon links".
package main

import "oasis/cmd/oasislint/testdata/src/bad/lib"

func main() {
	lib.Used()
	_ = lib.Options{}
}
