package x

import "testing"

func TestOnly(t *testing.T) {
	OnlyTests()
	PingA(2)
	T{}.Method()
}
