//go:build !amd64 || purego

package f16

// dotRows is DotRows after its checks: Dot per row, the portable path.
func dotRows(out []float32, rows [][]uint16, q []float32) {
	dotRowsPortable(out, rows, q)
}
