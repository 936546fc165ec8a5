package gen

import (
	"context"
	"testing"
)

func TestStallShowsAsLatency(t *testing.T) {
	if err := SelfTest(context.Background()); err != nil {
		t.Fatal(err)
	}
}
