package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"outofssa/internal/cachestore"
	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// runPersistServer starts a server whose shutdown the test controls —
// restart tests must drain (flushing the store) before reopening the
// same directory.
func runPersistServer(t *testing.T, conf Config) (*httptest.Server, *metrics.Registry, func()) {
	t.Helper()
	reg := metrics.New()
	conf.Metrics = reg
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
	t.Cleanup(stop)
	return hs, reg, stop
}

// segFiles lists the store's segment files under dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.laoc"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	return matches
}

// TestWarmStartServesIdentical is the restart contract: a killed and
// restarted daemon answers the same requests from its warmed cache —
// byte-identical output, every response a verified cache hit, zero
// parses, zero recompilation, zero poisoned or corrupt records.
func TestWarmStartServesIdentical(t *testing.T) {
	dir := t.TempDir()
	funcs := workload.SynthFuncs(24, 99)
	docs := make([][]byte, len(funcs))
	for i, f := range funcs {
		doc, err := ir.MarshalV1(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = doc
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	cold := make([]string, len(funcs))
	for i, doc := range docs {
		rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK {
			t.Fatalf("cold %d: status %d (%s)", i, rep.status, rep.errK)
		}
		cold[i] = rep.resp.Output
	}
	stop1()

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if warm := counterValue(reg2, MetricStoreWarm); warm != int64(len(funcs)) {
		t.Fatalf("warm-loaded %d records, want %d (one result per function)", warm, len(funcs))
	}
	if skipped := counterValue(reg2, MetricStoreWarmSkipped); skipped != 0 {
		t.Fatalf("warm start skipped %d records, want 0", skipped)
	}
	for i, doc := range docs {
		rep := postCompile(t, hs2.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK {
			t.Fatalf("warm %d: status %d (%s)", i, rep.status, rep.errK)
		}
		if !rep.resp.Cached {
			t.Fatalf("warm %d: response not served from cache after restart", i)
		}
		if rep.resp.Output != cold[i] {
			t.Fatalf("warm %d: output differs from pre-restart response", i)
		}
	}
	if miss := counterValue(reg2, MetricCacheMisses); miss != 0 {
		t.Fatalf("%d result-cache misses after warm start, want 0", miss)
	}
	if parsed := counterValue(reg2, MetricDecodeMisses); parsed != 0 {
		t.Fatalf("parsed %d bodies after warm start, want 0", parsed)
	}
	if unparsed := counterValue(reg2, MetricDecodeHits); unparsed != int64(len(docs)) {
		t.Fatalf("%d requests answered without a parse, want %d", unparsed, len(docs))
	}
	if poison := counterValue(reg2, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned entries after warm start, want 0", poison)
	}
	if corrupt := counterValue(reg2, MetricStoreCorrupt); corrupt != 0 {
		t.Fatalf("store reported %d corrupt records on a clean restart, want 0", corrupt)
	}
}

// TestWarmStartSkipsCorruptRecord flips a byte inside a stored record:
// the store's frame checksum catches it, the record is counted and
// skipped, and a re-request recompiles to the correct bytes — corrupt
// state on disk costs a recompilation, never a wrong answer.
func TestWarmStartSkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	f := testprog.Rand(7, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", rep.status, rep.errK)
	}
	want := rep.resp.Output
	stop1()

	// Flip one byte near the end of the newest non-empty segment — that
	// lands in the result record's payload or checksum.
	var target string
	for _, p := range segFiles(t, dir) {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			target = p
		}
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0x55
	if err := os.WriteFile(target, data, 0o666); err != nil {
		t.Fatal(err)
	}

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if corrupt := counterValue(reg2, MetricStoreCorrupt); corrupt < 1 {
		t.Fatalf("store counted %d corrupt records, want >= 1", corrupt)
	}
	rep = postCompile(t, hs2.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("after corruption: status %d (%s)", rep.status, rep.errK)
	}
	if rep.resp.Output != want {
		t.Fatal("post-corruption response differs from the original compile")
	}
	if poison := counterValue(reg2, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned serves detected, want 0 — corrupt records must never reach the cache", poison)
	}
}

// TestWarmStartSkipsLegacyDecodeRecord opens a store written by an
// older laocd, which persisted a decode record (kind 2: the function's
// b1 document) beside each result. The store must open cleanly and
// serve its result records; the decode record is counted as
// warm-skipped, never served, and dropped by the next compaction.
func TestWarmStartSkipsLegacyDecodeRecord(t *testing.T) {
	dir := t.TempDir()
	f, err := lai.Parse(srcSimple)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	rep := postCompile(t, hs1.URL, compileRequest{LAI: srcSimple})
	if rep.status != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", rep.status, rep.errK)
	}
	want := rep.resp.Output
	stop1()

	// A well-formed decode record, keyed the way the old server keyed
	// it: the content key of the request that decoded it.
	key := contentKey("lai", []byte(srcSimple), pipeline.ExpLphiABIC)
	st, err := cachestore.Open(dir, cachestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(&cachestore.Record{Kind: cachestore.KindDecode, Key: key, Payload: doc})
	st.Flush()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A one-byte size cap makes every append compact, so the server's
	// own liveness callback decides what survives.
	hs2, reg2, stop2 := runPersistServer(t, Config{CacheDir: dir, StoreMaxBytes: 1})
	if warm := counterValue(reg2, MetricStoreWarm); warm != 1 {
		t.Fatalf("warm-loaded %d records, want 1 (the result)", warm)
	}
	if skipped := counterValue(reg2, MetricStoreWarmSkipped); skipped != 1 {
		t.Fatalf("warm start skipped %d records, want 1 (the decode record)", skipped)
	}
	if corrupt := counterValue(reg2, MetricStoreCorrupt); corrupt != 0 {
		t.Fatalf("store counted %d corrupt records, want 0 — a decode record is well-formed", corrupt)
	}
	rep = postCompile(t, hs2.URL, compileRequest{LAI: srcSimple})
	if rep.status != http.StatusOK || !rep.resp.Cached || rep.resp.Output != want {
		t.Fatalf("after restart: status %d cached=%v, want the warm result", rep.status, rep.resp.Cached)
	}
	other := strings.Replace(srcSimple, "simple", "other", 1)
	if rep := postCompile(t, hs2.URL, compileRequest{LAI: other}); rep.status != http.StatusOK {
		t.Fatalf("new content: status %d (%s)", rep.status, rep.errK)
	}
	if poison := counterValue(reg2, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned serves, want 0", poison)
	}
	stop2()
	if n := counterValue(reg2, MetricStoreCompactions); n == 0 {
		t.Fatal("no compaction ran")
	}

	st, err = cachestore.Open(dir, cachestore.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	if err := st.Scan(func(rec *cachestore.Record) bool {
		if rec.Kind != cachestore.KindResult {
			t.Errorf("record of kind %d survived compaction", rec.Kind)
		}
		results++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if results != 2 {
		t.Fatalf("after compaction the store holds %d records, want the 2 results", results)
	}
}

// TestWarmStartTornTail simulates a crash mid-append: garbage bytes on
// the newest segment's tail are truncated at recovery and the intact
// records still warm the caches.
func TestWarmStartTornTail(t *testing.T) {
	dir := t.TempDir()
	f := testprog.Rand(11, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", rep.status, rep.errK)
	}
	want := rep.resp.Output
	stop1()

	var target string
	for _, p := range segFiles(t, dir) {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			target = p
		}
	}
	fh, err := os.OpenFile(target, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write(bytes.Repeat([]byte{0xAB}, 100))
	fh.Close()

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if trunc := counterValue(reg2, MetricStoreTruncated); trunc != 100 {
		t.Fatalf("recovery truncated %d bytes, want 100", trunc)
	}
	rep = postCompile(t, hs2.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK || !rep.resp.Cached {
		t.Fatalf("after torn-tail recovery: status %d cached=%v, want a warm hit", rep.status, rep.resp.Cached)
	}
	if rep.resp.Output != want {
		t.Fatal("post-recovery response differs from the original compile")
	}
}

// TestB1Negotiation pins the schema surface: the same function posted
// as a raw binary body and as a v1 JSON document must compile to
// identical output. Each wire form is its own content, parsed once;
// reposting the raw body is a hit that parses nothing.
func TestB1Negotiation(t *testing.T) {
	_, hs, reg := startServer(t, Config{})
	f := testprog.Rand(3, testprog.DefaultRandOptions())
	b1, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	raw := postRawCompile(t, hs.URL, b1)
	if raw.status != http.StatusOK {
		t.Fatalf("raw b1 body: status %d (%s)", raw.status, raw.errK)
	}
	if raw.resp.Cached {
		t.Fatal("first b1 request reported cached")
	}
	again := postRawCompile(t, hs.URL, b1)
	if again.status != http.StatusOK || !again.resp.Cached || again.resp.Output != raw.resp.Output {
		t.Fatalf("repeated raw b1 body: status %d cached=%v, want the cached reply", again.status, again.resp.Cached)
	}

	rep := postCompile(t, hs.URL, compileRequest{IR: v1})
	if rep.status != http.StatusOK {
		t.Fatalf("v1: status %d (%s)", rep.status, rep.errK)
	}
	if rep.resp.Output != raw.resp.Output {
		t.Fatal("v1 and b1 outputs differ")
	}

	if parsed := counterValue(reg, MetricDecodeMisses); parsed != 2 {
		t.Fatalf("parsed %d bodies, want 2 (one per distinct content: b1 bytes, v1 bytes)", parsed)
	}

	// A truncated binary body must be a 400, not a hang or a 500.
	hr, err := http.Post(hs.URL+"/compile", "application/octet-stream", bytes.NewReader(b1[:len(b1)-3]))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated b1 body: status %d, want 400", hr.StatusCode)
	}
}

// TestMixedSchemaDrive runs the workload generator's schema rotation
// (v1 JSON, raw b1) against one server: everything
// compiles, and every response for the same source function is
// byte-identical regardless of wire schema.
func TestMixedSchemaDrive(t *testing.T) {
	s, _, _ := startServer(t, Config{Workers: 4, QueueDepth: 256})
	const n, distinct = 64, 8
	funcs := workload.SynthPool(n, distinct, 321)
	reqs, err := workload.MixedRequests(funcs, 10_000, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]int, n)
	outputs := make([]string, n)
	rep := workload.Drive("http://laocd.mixed", reqs, workload.DriveOptions{
		Concurrency: 4,
		Client:      &http.Client{Transport: handlerTransport{h: s.Handler()}},
	}, outcomes, outputs)
	if rep.OK != n {
		t.Fatalf("mixed drive: %d/%d OK (report %s)", rep.OK, n, rep.String())
	}
	want := make(map[*ir.Func]string, distinct)
	for i, f := range funcs {
		if outcomes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, outcomes[i])
		}
		if prev, ok := want[f]; !ok {
			want[f] = outputs[i]
		} else if outputs[i] != prev {
			t.Fatalf("request %d: output differs across wire schemas for the same function", i)
		}
	}
}
