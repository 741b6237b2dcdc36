package adindex

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"adindex/internal/corpus"
)

func TestWriteReadAds(t *testing.T) {
	ads := GenerateAds(200, 7)
	var buf bytes.Buffer
	if err := WriteAds(&buf, ads); err != nil {
		t.Fatal(err)
	}
	back, err := corpus.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ads, back.Ads) {
		t.Fatal("ads round trip mismatch")
	}
}

func TestReadAdsError(t *testing.T) {
	if _, err := corpus.Read(strings.NewReader("garbage line\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestGenerateAdsDeterministic(t *testing.T) {
	a := GenerateAds(100, 3)
	b := GenerateAds(100, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed differs")
	}
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
}
