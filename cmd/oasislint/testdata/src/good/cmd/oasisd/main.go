// Command oasisd is the L007 fixture's entry point.
package main

import (
	"fmt"

	"oasis/cmd/oasislint/testdata/src/good/lib"
)

func main() {
	var d lib.Doer = lib.NewWorker()
	d.Do()
	fmt.Println(d, lib.Options{Level: 1})
}
