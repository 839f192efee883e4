//go:build !plan9

package buildtags

func osName() string { return "other" }
