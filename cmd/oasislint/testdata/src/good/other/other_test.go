// Package other has nothing but a test, and the test is lib's user.
package other

import (
	"testing"

	"oasis/cmd/oasislint/testdata/src/good/lib"
)

func TestOther(t *testing.T) { lib.UsedByOtherTest() }
