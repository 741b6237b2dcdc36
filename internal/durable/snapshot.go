package durable

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"adindex/internal/corpus"
)

// Snapshot file layout (all integers little-endian):
//
//	header (36 bytes):
//	  [0:8]   magic "ADXSNAP1"
//	  [8:12]  format version (uint32, currently 1)
//	  [12:20] generation (uint64)
//	  [20:28] index mutation epoch at capture (uint64)
//	  [28:32] section count (uint32)
//	  [32:36] CRC32C of header[0:32]
//	followed by sectionCount sections, each:
//	  [0:4]   tag (uint32)
//	  [4:12]  payload length (uint64)
//	  [12:16] CRC32C of payload
//	  [16:..] payload
//
// Snapshots are written to a .tmp file, fsync'd, closed, renamed into
// place, and the directory fsync'd — so a crash at any point leaves
// either the complete previous generation or the complete new one, never
// a half-written file that verification would have to guess about.

const (
	snapMagic      = "ADXSNAP1"
	snapVersion    = 1
	snapHeaderLen  = 36
	sectionHdrLen  = 16
	sectionAds     = 1
	sectionMapping = 2
	// maxSection bounds a single section payload (1 GiB) so corrupt
	// lengths fail fast instead of attempting absurd allocations.
	maxSection = 1 << 30
)

// SnapshotState is the full persisted index state.
type SnapshotState struct {
	Ads     []corpus.Ad
	Mapping map[string][]string
	Epoch   uint64
	Gen     uint64
}

// writeSnapshot atomically writes generation gen. Each logical part
// (header, section headers, payloads) is a separate Write call so fault
// injection can target them individually.
func writeSnapshot(fsys FS, dir string, gen uint64, ads []corpus.Ad, mapping map[string][]string, epoch uint64) error {
	// The two payloads are encoded side by side; the bytes are those of
	// encoding one after the other.
	adsDone := make(chan []byte, 1)
	go func() { adsDone <- encodeAds(ads) }()
	mappingPayload := encodeMapping(mapping)
	sections := []struct {
		tag     uint32
		payload []byte
	}{
		{sectionAds, <-adsDone},
		{sectionMapping, mappingPayload},
	}

	hdr := make([]byte, 0, snapHeaderLen)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, gen)
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(sections)))
	hdr = binary.LittleEndian.AppendUint32(hdr, checksum(hdr))

	tmp := filepath.Join(dir, snapName(gen)+tmpSuffix)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	write := func(b []byte) error {
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		return err
	}
	if err := write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	for _, s := range sections {
		sh := make([]byte, 0, sectionHdrLen)
		sh = binary.LittleEndian.AppendUint32(sh, s.tag)
		sh = binary.LittleEndian.AppendUint64(sh, uint64(len(s.payload)))
		sh = binary.LittleEndian.AppendUint32(sh, checksum(s.payload))
		if err := write(sh); err == nil {
			err = write(s.payload)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("durable: write %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	final := filepath.Join(dir, snapName(gen))
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}

// loadSnapshot reads and fully verifies generation gen. Verification
// failures return a *CorruptError classifying what is wrong.
func loadSnapshot(fsys FS, dir string, gen uint64) (*SnapshotState, error) {
	name := snapName(gen)
	f, err := fsys.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", name, err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("durable: read %s: %w", name, err)
	}
	return parseSnapshot(name, data)
}

// parseSnapshot verifies and decodes snapshot bytes.
func parseSnapshot(name string, data []byte) (*SnapshotState, error) {
	bad := func(class Corruption, format string, args ...any) error {
		return &CorruptError{File: name, Class: class, Detail: fmt.Sprintf(format, args...)}
	}
	if len(data) < snapHeaderLen {
		return nil, bad(CorruptHeader, "file of %d bytes is shorter than the %d-byte header", len(data), snapHeaderLen)
	}
	if string(data[:8]) != snapMagic {
		return nil, bad(CorruptHeader, "bad magic %q", data[:8])
	}
	if got, want := binary.LittleEndian.Uint32(data[32:36]), checksum(data[:32]); got != want {
		return nil, bad(CorruptHeader, "header CRC %08x, want %08x", got, want)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapVersion {
		return nil, bad(CorruptHeader, "unsupported version %d", v)
	}
	st := &SnapshotState{
		Gen:   binary.LittleEndian.Uint64(data[12:20]),
		Epoch: binary.LittleEndian.Uint64(data[20:28]),
	}
	nSections := binary.LittleEndian.Uint32(data[28:32])
	off := snapHeaderLen
	for i := uint32(0); i < nSections; i++ {
		if len(data)-off < sectionHdrLen {
			return nil, bad(CorruptSnapTruncated, "section %d: %d bytes left, need %d-byte section header",
				i, len(data)-off, sectionHdrLen)
		}
		tag := binary.LittleEndian.Uint32(data[off : off+4])
		plen := binary.LittleEndian.Uint64(data[off+4 : off+12])
		pcrc := binary.LittleEndian.Uint32(data[off+12 : off+16])
		off += sectionHdrLen
		if plen > maxSection || plen > uint64(len(data)-off) {
			return nil, bad(CorruptSnapTruncated, "section %d (tag %d) promises %d payload bytes, %d remain",
				i, tag, plen, len(data)-off)
		}
		payload := data[off : off+int(plen)]
		off += int(plen)
		if got := checksum(payload); got != pcrc {
			return nil, bad(CorruptSectionCRC, "section %d (tag %d) CRC %08x, want %08x", i, tag, got, pcrc)
		}
		switch tag {
		case sectionAds:
			ads, err := decodeAds(payload)
			if err != nil {
				return nil, bad(CorruptSectionCRC, "ads section: %v", err)
			}
			st.Ads = ads
		case sectionMapping:
			mapping, err := decodeMapping(payload)
			if err != nil {
				return nil, bad(CorruptSectionCRC, "mapping section: %v", err)
			}
			st.Mapping = mapping
		default:
			// Unknown sections are skipped (forward compatibility): the
			// CRC already proved they are intact.
		}
	}
	return st, nil
}
