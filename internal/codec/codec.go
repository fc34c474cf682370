// Package codec is the one binary file format of the repository: the
// simulation's chain checkpoints and the trust service's warm-restart
// snapshots are both written with it.
//
// A file is an envelope around a body of 64-bit little-endian words:
//
//	magic | version (u64) | body | CRC32C of everything before it (u32)
//
// Floats are stored as their IEEE-754 bits, so a round trip is
// bit-identical, and the encoding is a pure function of what the body
// callback writes, so equal state gives equal bytes. Variable-length values
// carry a length word. On read every length is checked against the bytes
// left in the body before anything is allocated, so a corrupt count fails
// the decode instead of allocating for elements the file does not hold.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder appends words to an in-memory body. The zero value is ready.
type Encoder struct {
	buf []byte
}

// U64 writes one word.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int writes v as a two's-complement word.
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// F64 writes v's IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U64(1)
	} else {
		e.U64(0)
	}
}

// Text writes a length word and the bytes of s.
func (e *Encoder) Text(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Floats writes a length word and one word per element.
func (e *Encoder) Floats(s []float64) {
	e.Int(len(s))
	for _, v := range s {
		e.F64(v)
	}
}

// Ints writes a length word and one word per element.
func (e *Encoder) Ints(s []int) {
	e.Int(len(s))
	for _, v := range s {
		e.Int(v)
	}
}

// Bools writes a length word and one word per element.
func (e *Encoder) Bools(s []bool) {
	e.Int(len(s))
	for _, v := range s {
		e.Bool(v)
	}
}

// Decoder reads words from a body. Errors are sticky: after the first
// failure every read returns a zero value and Err reports that failure, so
// a section decoder can read straight through and check once at the end.
type Decoder struct {
	buf []byte
	err error
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decode failure unless one is already recorded.
// Section decoders use it for values that are well-formed words but not a
// valid state.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// U64 reads one word.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("codec: body truncated (%d bytes left, need 8)", len(d.buf))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Int reads a word written by Encoder.Int.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// F64 reads a word written by Encoder.F64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a word written by Encoder.Bool; any non-zero word is true.
func (d *Decoder) Bool() bool { return d.U64() != 0 }

// Len reads an element count for elements that each occupy at least size
// bytes of the body. A negative count, or one whose elements could not fit
// in the bytes left, fails the decode and returns 0, so a caller may
// allocate n elements before reading them.
func (d *Decoder) Len(size int) int {
	n := d.Int()
	if d.err == nil && (n < 0 || n > len(d.buf)/size) {
		d.err = fmt.Errorf("codec: count %d of %d-byte elements exceeds the %d bytes left", n, size, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Text reads a string written by Encoder.Text. (It is not named String
// so that a Decoder never satisfies fmt.Stringer: printing one must not
// consume its input.)
func (d *Decoder) Text() string {
	n := d.Len(1)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Floats reads a slice written by Encoder.Floats into dst's storage when
// its capacity allows.
func (d *Decoder) Floats(dst []float64) []float64 {
	dst = Resize(dst, d.Len(8))
	for i := range dst {
		dst[i] = d.F64()
	}
	return dst
}

// Ints reads a slice written by Encoder.Ints into dst's storage when its
// capacity allows.
func (d *Decoder) Ints(dst []int) []int {
	dst = Resize(dst, d.Len(8))
	for i := range dst {
		dst[i] = d.Int()
	}
	return dst
}

// Bools reads a slice written by Encoder.Bools into dst's storage when its
// capacity allows.
func (d *Decoder) Bools(dst []bool) []bool {
	dst = Resize(dst, d.Len(8))
	for i := range dst {
		dst[i] = d.Bool()
	}
	return dst
}

// Resize returns dst with length n, reusing its storage when the capacity
// allows. A nil dst stays nil at n == 0, so decoding an empty slice into a
// fresh container reproduces the nil the encoder saw.
func Resize[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// WriteFile writes magic, version, the body that fn encodes, and the
// CRC32C trailer to path, creating parent directories as needed. The bytes
// go to a temporary file in path's directory that is synced and then
// renamed over path, so a crash or error at any point leaves the previous
// file intact; the temporary file is removed on every failure.
func WriteFile(path, magic string, version uint64, fn func(*Encoder) error) error {
	e := &Encoder{buf: append([]byte(nil), magic...)}
	e.U64(version)
	if err := fn(e); err != nil {
		return fmt.Errorf("codec: encoding %s: %w", path, err)
	}
	data := binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(e.buf, castagnoli))

	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("codec: writing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads a file written by WriteFile with the same magic and
// version: it checks both, verifies the CRC, decodes the body through fn,
// and rejects bytes fn left unread. A missing file returns an error that
// matches os.ErrNotExist.
func ReadFile(path, magic string, version uint64, fn func(*Decoder) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Decode(data, magic, version, fn); err != nil {
		return fmt.Errorf("codec: reading %s: %w", path, err)
	}
	return nil
}

// Decode is ReadFile on a file image already in memory.
func Decode(data []byte, magic string, version uint64, fn func(*Decoder) error) error {
	head := len(magic) + 8
	if len(data) < head+4 || string(data[:len(magic)]) != magic {
		return fmt.Errorf("not a %q file", magic)
	}
	if v := binary.LittleEndian.Uint64(data[len(magic):]); v != version {
		return fmt.Errorf("%q file has version %d, this build reads version %d", magic, v, version)
	}
	end := len(data) - 4
	if sum := crc32.Checksum(data[:end], castagnoli); sum != binary.LittleEndian.Uint32(data[end:]) {
		return errors.New("checksum mismatch: the file is corrupt")
	}
	d := &Decoder{buf: data[head:end]}
	if err := fn(d); err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%d trailing bytes after the body", len(d.buf))
	}
	return nil
}
