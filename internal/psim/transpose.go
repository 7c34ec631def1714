package psim

// Transpose64 transposes the 64x64 bit matrix held in a, in place: bit j
// of word i moves to bit i of word j. This is the recursive block-swap of
// Hacker's Delight figure 7-3 widened to 64 bits — six rounds of
// half-size swaps instead of 64*64 single-bit moves. It converts wide
// values between the engine's two layouts, lane-sliced (word i = lane i's
// value) and bit-sliced (word j = bit j across all 64 lanes): stimulus
// wider than 16 bits, through BitSlice, and recorded signals of 16 bits
// or more. The matrix transpose is its own inverse, so the same routine
// serves both directions.
func Transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		// The halved mask pairs with the halved stride: update m with the
		// new j (the C original's comma sequence), not the one just used.
		j >>= 1
		m ^= m << j
	}
}

// BitSlice converts lane-sliced values into bit-sliced words: bit k of
// dst[b] becomes bit b of src[k]. The lane count is len(src), at most 64;
// lanes at or above it read zero, and bits of src at or above len(dst)
// are ignored. Values of up to 16 bits — nearly every stimulus port —
// go through 8x8 bit blocks: each group of eight lanes packs one byte of
// its values into a word, three delta swaps transpose it, and its bytes
// scatter into dst. Wider values take the full Transpose64.
func BitSlice(dst, src []uint64) {
	if len(dst) > 16 {
		var a [64]uint64
		copy(a[:], src)
		Transpose64(&a)
		copy(dst, a[:])
		return
	}
	clear(dst)
	for base := 0; base < len(dst); base += 8 {
		plane, sh := dst[base:min(base+8, len(dst))], uint(base)
		for g := 0; g < len(src); g += 8 {
			var x uint64 // byte j: bits sh..sh+7 of lane g+j
			if g+8 <= len(src) {
				s := (*[8]uint64)(src[g : g+8])
				x = s[0]>>sh&0xff | s[1]>>sh&0xff<<8 | s[2]>>sh&0xff<<16 | s[3]>>sh&0xff<<24 |
					s[4]>>sh&0xff<<32 | s[5]>>sh&0xff<<40 | s[6]>>sh&0xff<<48 | s[7]>>sh&0xff<<56
			} else {
				for j, v := range src[g:] {
					x |= v >> sh & 0xff << uint(8*j)
				}
			}
			x = transpose8(x) // byte b: bit sh+b of lanes g..g+7
			for b := range plane {
				plane[b] |= x >> uint(8*b) & 0xff << uint(g)
			}
		}
	}
}

// transpose8 transposes the 8x8 bit matrix whose row i is byte i of x
// with the three delta swaps of Hacker's Delight section 7-3: bit j of
// byte i moves to bit i of byte j.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// Spread broadcasts one concrete value across all 64 lanes of a
// bit-sliced word vector: dst[b] is all ones iff bit b of v is set.
func Spread(dst []uint64, v uint64) {
	for b := range dst {
		dst[b] = -(v >> uint(b) & 1)
	}
}
