// Package a is the production gate's corpus: module a and its nested
// module a/cmd/b (which uses a through a replace, as cmd/bench uses
// remspan) form the program. A `// want "re"` comment marks each line
// the gate must report.
package a

import (
	"container/heap"
	"fmt"

	"a/internal/sched"
	"a/internal/x"
	"a/internal/y"
)

// Run is production: every function outside internal/ is.
func Run() {
	h := &x.Heap{3, 1, 2}
	heap.Init(h)
	fmt.Println(x.Name(1), heap.Pop(h))
	x.Used()
	y.Run()
	sched.Run()
}
