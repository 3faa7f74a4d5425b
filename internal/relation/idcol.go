package relation

import "encoding/binary"

// This file holds the ID-column key helpers: packed byte keys over dense
// uint32 value-ID vectors (see Interner.ID). An ID-keyed group index
// stores 4 bytes per value instead of the length-prefixed string
// encoding of EncodeKey — and because IDs are fixed-width, packing and
// unpacking are tight loops over words instead of per-byte scans over
// strings.

// AppendIDKey appends the packed little-endian encoding of ids to dst
// and returns it: 4 bytes per ID, no framing. IDs are fixed-width, so
// unlike EncodeKey no length prefixes are needed for the encoding to be
// prefix-free at a known arity.
func AppendIDKey(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, id)
	}
	return dst
}

// DecodeIDKey appends the IDs packed in key (an AppendIDKey encoding)
// to dst and returns it. A key whose length is not a multiple of 4
// yields the whole 4-byte prefix groups and ignores the tail.
func DecodeIDKey(dst []uint32, key string) []uint32 {
	for len(key) >= 4 {
		dst = append(dst, uint32(key[0])|uint32(key[1])<<8|uint32(key[2])<<16|uint32(key[3])<<24)
		key = key[4:]
	}
	return dst
}
