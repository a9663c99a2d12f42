package lib

import "testing"

func TestKept(t *testing.T) { Kept() }
