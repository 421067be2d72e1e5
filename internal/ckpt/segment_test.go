package ckpt

// encodeSegment frames a payload into a buffer of its own, as the store
// did before it kept one frame across stage writes; the corruption and
// fuzz tests build their forged and seed segments with it.
func encodeSegment(stage string, payload []byte) []byte {
	seg, _ := appendSegment(nil, stage, payload)
	return seg
}
