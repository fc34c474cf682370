package codec

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const (
	testMagic   = "TEST\n"
	testVersion = 7
)

type record struct {
	U      uint64
	I      int
	F      float64
	B      bool
	S      string
	Fs     []float64
	Is     []int
	Bs     []bool
	Empty  []float64
	Spaced string
}

func (r *record) encode(e *Encoder) error {
	e.U64(r.U)
	e.Int(r.I)
	e.F64(r.F)
	e.Bool(r.B)
	e.Text(r.S)
	e.Floats(r.Fs)
	e.Ints(r.Is)
	e.Bools(r.Bs)
	e.Floats(r.Empty)
	e.Text(r.Spaced)
	return nil
}

func (r *record) decode(d *Decoder) error {
	r.U = d.U64()
	r.I = d.Int()
	r.F = d.F64()
	r.B = d.Bool()
	r.S = d.Text()
	r.Fs = d.Floats(r.Fs)
	r.Is = d.Ints(r.Is)
	r.Bs = d.Bools(r.Bs)
	r.Empty = d.Floats(r.Empty)
	r.Spaced = d.Text()
	return d.Err()
}

func TestRoundTripBitIdentical(t *testing.T) {
	want := &record{
		U:      math.MaxUint64,
		I:      -42,
		F:      math.Copysign(0, -1),
		B:      true,
		S:      "odd length",
		Fs:     []float64{math.Inf(-1), math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8000000000001)},
		Is:     []int{math.MinInt64, 0, math.MaxInt64},
		Bs:     []bool{true, false},
		Spaced: "after an unaligned string",
	}
	path := filepath.Join(t.TempDir(), "a", "b", "rec.bin")
	if err := WriteFile(path, testMagic, testVersion, want.encode); err != nil {
		t.Fatal(err)
	}
	got := &record{}
	if err := ReadFile(path, testMagic, testVersion, got.decode); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.F) != math.Float64bits(want.F) ||
		math.Float64bits(got.Fs[2]) != math.Float64bits(want.Fs[2]) {
		t.Fatal("float bits changed in the round trip")
	}
	got.F, want.F = 0, 0
	got.Fs[2], want.Fs[2] = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.bin")
	if err := WriteFile(path, testMagic, testVersion, (&record{S: "x", Fs: []float64{1}}).encode); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := good[len(testMagic)+8 : len(good)-4]
	seal := func(magic string, version uint64, body []byte) []byte {
		p := filepath.Join(t.TempDir(), "f")
		if err := WriteFile(p, magic, version, func(e *Encoder) error {
			e.buf = append(e.buf, body...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "not a", nil},
		{"wrong magic", "not a", seal("OTHER", testVersion, body)},
		{"old version", "version 6", seal(testMagic, testVersion-1, body)},
		{"short", "not a", good[:len(testMagic)+8+3]},
		{"truncated body", "checksum", good[:len(good)-9]},
		{"resealed truncated body", "truncated", seal(testMagic, testVersion, body[:len(body)-8])},
		{"trailing", "trailing", seal(testMagic, testVersion, append(append([]byte(nil), body...), 1, 2))},
		{"bad crc", "checksum", append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^0xff)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Decode(tc.data, testMagic, testVersion, (&record{}).decode)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestLenBoundsCountByBytesLeft: a count is refused unless its elements fit
// in the bytes left, before the caller can allocate for it.
func TestLenBoundsCountByBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		count, size int
		left        int
		ok          bool
	}{
		{0, 8, 0, true},
		{2, 8, 16, true},
		{3, 8, 16, false},
		{3, 8, 23, false},
		{3, 8, 24, true},
		{-1, 8, 64, false},
		{1 << 62, 1, 64, false},
		{5, 1, 5, true},
	} {
		e := &Encoder{}
		e.Int(tc.count)
		e.buf = append(e.buf, make([]byte, tc.left)...)
		d := &Decoder{buf: e.buf}
		n := d.Len(tc.size)
		if ok := d.Err() == nil; ok != tc.ok || (ok && n != tc.count) {
			t.Errorf("count %d × %d bytes in %d: n=%d err=%v", tc.count, tc.size, tc.left, n, d.Err())
		}
	}

	// Errors are sticky: once failed, reads return zero values.
	d := &Decoder{buf: []byte{1, 2, 3}}
	if d.U64() != 0 || d.Err() == nil {
		t.Fatal("short read should fail")
	}
	first := d.Err()
	d.Fail(errors.New("later"))
	if d.Text() != "" || d.Floats(nil) != nil || d.Err() != first {
		t.Fatal("a failed decoder must keep its first error and read zeros")
	}
}

// TestWriteFileFaultsKeepPreviousFile is the unit form of a crash between
// the temporary write and the rename: when the body or the rename fails,
// the file already at the path is untouched and no temporary file is left.
func TestWriteFileFaultsKeepPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFile(path, testMagic, testVersion, (&record{S: "v1"}).encode); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err = WriteFile(path, testMagic, testVersion, func(e *Encoder) error {
		e.Text("half a body")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("body failure: got %v, want it wrapped", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed body changed the previous file")
	}

	// A directory at the target path makes the rename fail after the
	// temporary file was written and synced.
	target := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, testMagic, testVersion, (&record{S: "v2"}).encode); err == nil {
		t.Fatal("rename over a directory should fail")
	}
	if fi, err := os.Stat(filepath.Join(target, "child")); err != nil || !fi.IsDir() {
		t.Fatalf("failed rename disturbed the target: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "state.bin" && e.Name() != "occupied" {
			t.Errorf("leftover file %q", e.Name())
		}
	}
	var r record
	if err := ReadFile(path, testMagic, testVersion, r.decode); err != nil || r.S != "v1" {
		t.Fatalf("previous file no longer reads back: %v %q", err, r.S)
	}
}

func TestReadFileMissingIsNotExist(t *testing.T) {
	err := ReadFile(filepath.Join(t.TempDir(), "absent"), testMagic, testVersion, (&record{}).decode)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want os.ErrNotExist", err)
	}
}
