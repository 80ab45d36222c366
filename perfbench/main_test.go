package main

import (
	"testing"

	"rstore/internal/simnet"
)

func TestEarliest(t *testing.T) {
	clocks := []simnet.VTime{5, 3, 3}
	now := func(i int) simnet.VTime { return clocks[i] }
	cases := []struct {
		left []int
		want int
	}{
		{[]int{1, 1, 1}, 1},  // earliest clock, lowest index on a tie
		{[]int{1, 0, 2}, 2},  // a client with no ops left is skipped
		{[]int{4, 0, 0}, 0},  // the only client left runs however far ahead
		{[]int{0, 0, 0}, -1}, // all done
	}
	for _, c := range cases {
		if got := earliest(now, c.left); got != c.want {
			t.Errorf("earliest(%v, %v) = %d, want %d", clocks, c.left, got, c.want)
		}
	}
}
