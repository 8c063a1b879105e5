package testutil

// Helper is test-only.
func Helper() {}
