// Command b is the second module of the corpus: its use of x counts.
package main

import "a/internal/x"

func main() { x.UsedByB() }
