// Package buildtags holds declarations with build-constrained twins: the
// loader must type-check only the files the compiler would build, so the
// package loads with no type errors.
package buildtags

// Use calls both twinned functions.
func Use() int { return impl() + len(osName()) }
