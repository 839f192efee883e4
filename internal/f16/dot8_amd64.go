//go:build amd64 && !purego

package f16

// useF16C selects the FP16 assembly kernel and useAVX2 the int8 one. Both
// need AVX and the OS saving the XMM and YMM state (OSXSAVE set, XCR0 bits
// 1 and 2), or VEX-encoded instructions fault; then F16C (leaf 1 ECX bit
// 29) and AVX2 (leaf 7 EBX bit 5) respectively.
var useF16C, useAVX2 = cpuFeatures()

func cpuFeatures() (f16c, avx2 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false, false
	}
	const osxsave, avx, f16cBit = 1 << 27, 1 << 28, 1 << 29
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	if maxID >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		avx2 = ebx&(1<<5) != 0
	}
	return ecx&f16cBit != 0, avx2
}

//go:noescape
func dot8(acc *[MaxDotRows][4]float32, rows *[MaxDotRows]*uint16, q *float32, chunks int)

//go:noescape
func dotI8(out *int32, rows *int8, n, stride int, q *int16, chunks int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotRows is DotRows after its checks. The kernel always scores
// MaxDotRows rows, so unused slots repeat rows[0]; it covers the whole
// 4-wide chunks, and the tail and the left-to-right lane sum are Dot's own.
func dotRows(out []float32, rows [][]uint16, q []float32) {
	chunks := len(q) / 4
	if !useF16C || chunks == 0 {
		dotRowsPortable(out, rows, q)
		return
	}
	var ptrs [MaxDotRows]*uint16
	for i := range ptrs {
		ptrs[i] = &rows[0][0]
	}
	for i, r := range rows {
		ptrs[i] = &r[0]
	}
	var acc [MaxDotRows][4]float32
	dot8(&acc, &ptrs, &q[0], chunks)
	for i, r := range rows {
		s := &acc[i]
		for j := chunks * 4; j < len(q); j++ {
			s[0] += ToFloat32(r[j]) * q[j]
		}
		out[i] = s[0] + s[1] + s[2] + s[3]
	}
}

// dotI8Rows is DotI8Rows after its checks. The kernel sums the whole
// 16-wide chunks of every row; the tail past them is added here.
func dotI8Rows(out []int32, rows []int8, q []int16) {
	d := len(q)
	chunks := d / 16
	if !useAVX2 || chunks == 0 {
		dotI8RowsPortable(out, rows, q)
		return
	}
	dotI8(&out[0], &rows[0], len(out), d, &q[0], chunks)
	if tail := chunks * 16; tail < d {
		for i := range out {
			s := out[i]
			for j, c := range rows[i*d+tail : (i+1)*d] {
				s += int32(c) * int32(q[tail+j])
			}
			out[i] = s
		}
	}
}
