package reference

import "a/internal/x"

// Oracle is test-only: nothing here is reported, and its use of x does
// not count as production's.
func Oracle() int { return x.OnlyFromReference() }
