package xtest

// seam reaches the external test package only through export_test.go.
func seam() error { return nil }
