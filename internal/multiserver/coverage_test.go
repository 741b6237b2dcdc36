package multiserver

import (
	"errors"
	"testing"
	"time"
)

func TestResetStats(t *testing.T) {
	c, ix, _ := testSetup(t, 50)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	client, err := Dial(srv.Addr(), adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query("anything"); err != nil {
		t.Fatal(err)
	}
	if srv.Requests() != 1 {
		t.Fatalf("Requests = %d", srv.Requests())
	}
	srv.ResetStats()
	if srv.Requests() != 0 || srv.BusyFraction(time.Second) != 0 {
		t.Errorf("ResetStats incomplete: req=%d busy=%v",
			srv.Requests(), srv.BusyFraction(time.Second))
	}
	if srv.BusyFraction(0) != 0 {
		t.Errorf("BusyFraction(0) = %v", srv.BusyFraction(0))
	}
	if srv.BusyFraction(-time.Second) != 0 {
		t.Errorf("negative elapsed should be 0")
	}
}

func TestQueryAgainstClosedServers(t *testing.T) {
	c, ix, _ := testSetup(t, 20)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr(), adSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Closing the ad server mid-session: the next query errors cleanly.
	adSrv.Close()
	if _, err := client.Query("whatever query"); err == nil {
		t.Error("query should fail with the ad server down")
	}
	srv.Close()
	if _, err := client.Query("again"); err == nil {
		t.Error("query should fail with both servers down")
	}
}

func TestMalformedFrameFromServer(t *testing.T) {
	// A server that answers with a malformed ID frame: client must error.
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, BackendFunc(func(dst []byte, _ Request) ([]byte, error) {
		return append(dst, 0, 0, 0, 9, 1), nil // claims 9 ids, sends 1 byte
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The same bogus server doubles as the "ad server"; the index hop
	// already fails decoding.
	client, err := Dial(srv.Addr(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query("q"); err == nil {
		t.Error("malformed frame accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	if _, err := newFrameReader(iotaReader{}).readFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame: err = %v, want ErrFrameTooLarge", err)
	}
}

// iotaReader yields a frame header declaring a >16MiB payload.
type iotaReader struct{}

func (iotaReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xff
	}
	return len(p), nil
}

func TestRunLoadEmptyStream(t *testing.T) {
	c, ix, _ := testSetup(t, 10)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adSrv, err := NewAdServer("127.0.0.1:0", ServeOpts{}, c.Ads)
	if err != nil {
		t.Fatal(err)
	}
	defer adSrv.Close()
	res, err := RunLoad(srv, adSrv.Addr(), nil, 0, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Throughput != 0 {
		t.Errorf("empty load: %+v", res)
	}
	if res.FractionWithin(time.Second) != 0 {
		t.Errorf("FractionWithin on empty: %v", res.FractionWithin(time.Second))
	}
}

func TestRunLoadBadAddress(t *testing.T) {
	c, ix, _ := testSetup(t, 50)
	srv, err := NewIndexServer("127.0.0.1:0", ServeOpts{}, CoreBackend{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stream := hotWordStream(c, 5)
	if _, err := RunLoad(srv, "127.0.0.1:1", stream, 2, srv.Addr()); err == nil {
		t.Error("unreachable ad server accepted")
	}
}
