//go:build !amd64 || purego

package f16

// dotRows is DotRows after its checks: Dot per row, the portable path.
func dotRows(out []float32, rows [][]uint16, q []float32) {
	dotRowsPortable(out, rows, q)
}

// dotI8Rows is DotI8Rows after its checks: the plain integer loop.
func dotI8Rows(out []int32, rows []int8, q []int16) {
	dotI8RowsPortable(out, rows, q)
}
