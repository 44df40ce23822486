package embed

import (
	"bytes"
	"math"
	"testing"
)

func TestTableConfigs(t *testing.T) {
	if err := (TableConfig{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
	if err := (TableConfig{Rows: 1, Dim: 0}).Validate(); err == nil {
		t.Error("Dim=0 accepted")
	}
	d := DLRMConfig(0)
	if d.Rows != 10131227 || d.RowBytes() != 128 {
		t.Errorf("DLRM default = %+v (%d B)", d, d.RowBytes())
	}
	x := XLMRConfig(0)
	if x.Rows != 262144 || x.RowBytes() != 4096 {
		t.Errorf("XLMR default = %+v (%d B)", x, x.RowBytes())
	}
	if DLRMConfig(100).Rows != 100 {
		t.Error("row override ignored")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := []float32{0, 1.5, -3.25, float32(math.Pi), math.MaxFloat32, -math.SmallestNonzeroFloat32}
	enc := EncodeRow(row)
	if len(enc) != 4*len(row) {
		t.Fatalf("encoded length %d", len(enc))
	}
	dec, err := DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if dec[i] != row[i] {
			t.Errorf("elem %d: %v != %v", i, dec[i], row[i])
		}
	}
	if _, err := DecodeRow([]byte{1, 2, 3}); err == nil {
		t.Error("ragged payload accepted")
	}
	dst := make([]float32, len(row))
	if err := DecodeRowInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRowInto(dst[:2], enc); err == nil {
		t.Error("short dst accepted")
	}
	out := make([]byte, len(enc))
	if err := EncodeRowInto(out, row); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, enc) {
		t.Error("EncodeRowInto mismatch")
	}
	if err := EncodeRowInto(out[:4], row); err == nil {
		t.Error("short dst accepted")
	}
}

func TestInitRowDeterministicAndBounded(t *testing.T) {
	cfg := TableConfig{Rows: 100, Dim: 16}
	a := InitRow(cfg, 7)
	b := InitRow(cfg, 7)
	c := InitRow(cfg, 8)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitRow not deterministic")
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] < -0.05 || a[i] >= 0.05 {
			t.Errorf("init value %v out of [-0.05, 0.05)", a[i])
		}
	}
	if !diff {
		t.Error("rows 7 and 8 identical")
	}
	pay := InitRowBytes(cfg)(7)
	dec, err := DecodeRow(pay)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != a[0] {
		t.Error("InitRowBytes disagrees with InitRow")
	}
}
