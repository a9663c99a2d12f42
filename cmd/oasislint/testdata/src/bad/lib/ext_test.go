package lib_test

import (
	"testing"

	"oasis/cmd/oasislint/testdata/src/bad/lib"
)

func TestExternal(t *testing.T) { lib.ExternalOwnTestOnly() }
