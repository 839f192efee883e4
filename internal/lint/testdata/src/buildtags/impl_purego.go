//go:build purego

package buildtags

func impl() int { return 2 }
