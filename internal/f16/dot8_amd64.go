//go:build amd64 && !purego

package f16

// useF16C selects the assembly kernel: the CPU must have AVX and F16C, and
// the OS must save the XMM and YMM state (OSXSAVE set, XCR0 bits 1 and 2),
// or VEX-encoded instructions fault.
var useF16C = f16cUsable()

func f16cUsable() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	const osxsave, avx, f16c = 1 << 27, 1 << 28, 1 << 29
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx|f16c) != osxsave|avx|f16c {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

//go:noescape
func dot8(acc *[MaxDotRows][4]float32, rows *[MaxDotRows]*uint16, q *float32, chunks int)

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
