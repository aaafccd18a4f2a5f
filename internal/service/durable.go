package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"glitchsim/netlist"
)

// Durable uploads: with WithUploadDir, every accepted circuit upload is
// also written to disk as a <fingerprint>.json document, and uploads
// survive a server restart — a measurement referencing a fingerprint
// from before the restart resolves by lazily reloading the netlist from
// disk into the in-memory LRU. The on-disk discipline mirrors
// jobs.FileStore: writes go to a dot-prefixed temp file in the same
// directory and are renamed into place, so a crash mid-write leaves a
// stale temp (swept at startup) and never a torn document. Corrupt or
// tampered documents (unparseable, or whose netlist no longer hashes to
// the fingerprint in their name) are skipped with a log line, never
// served.

// WithUploadDir persists circuit uploads under dir (created if
// missing), so they survive server restarts. The in-memory LRU
// (WithUploadCapacity) remains the cache in front: eviction drops a
// circuit from memory but not from disk, and the store is not bounded —
// the operator owns the directory. An unusable directory logs and
// disables durability; uploads still work in memory only.
func WithUploadDir(dir string) Option {
	return func(s *Server) { s.uploadDir = dir }
}

// initUploadDisk attaches the durable store once options are applied
// (so it sees the final logf).
func (s *Server) initUploadDisk() {
	if s.uploadDir == "" {
		return
	}
	disk, err := openCircuitDisk(s.uploadDir, s.logf)
	if err != nil {
		s.logf("service: durable uploads disabled: %v", err)
		return
	}
	s.uploads.disk = disk
}

// circuitDoc is the on-disk document: the handle for listings plus the
// netlist itself in its canonical JSON form (which round-trips the
// fingerprint exactly — net order is preserved).
type circuitDoc struct {
	Fingerprint string          `json:"fingerprint"`
	Info        CircuitInfo     `json:"info"`
	Netlist     json.RawMessage `json:"netlist"`
}

// circuitDisk is the durable side of the upload store. Safe for
// concurrent use; the uploadStore calls it outside its own lock.
type circuitDisk struct {
	dir  string
	logf func(format string, args ...any)

	mu    sync.Mutex
	infos map[string]CircuitInfo // fingerprint -> handle, from scan + puts
}

// openCircuitDisk opens (creating if needed) the durable directory,
// sweeps stale temp files from crashed writes, and indexes the handles
// of every readable document. Netlists are not parsed here — deep
// verification happens on load, keeping startup proportional to the
// catalogue size, not the circuit sizes.
func openCircuitDisk(dir string, logf func(format string, args ...any)) (*circuitDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating upload dir: %w", err)
	}
	d := &circuitDisk{dir: dir, logf: logf, infos: map[string]CircuitInfo{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scanning upload dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".") {
			// A dot-prefixed file is an interrupted write's temp file:
			// its rename never happened, so its content was never
			// promised to anyone. Sweep it.
			if strings.Contains(name, ".tmp-") {
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		fp, ok := strings.CutSuffix(name, ".json")
		if !ok {
			continue
		}
		doc, err := d.readDoc(fp)
		if err != nil {
			logf("service: skipping corrupt upload %s: %v", name, err)
			continue
		}
		d.infos[fp] = doc.Info
	}
	return d, nil
}

// readDoc reads and structurally validates one document (fingerprint
// fields consistent with the file name); the netlist payload is not yet
// parsed.
func (d *circuitDisk) readDoc(fp string) (*circuitDoc, error) {
	raw, err := os.ReadFile(filepath.Join(d.dir, fp+".json"))
	if err != nil {
		return nil, err
	}
	var doc circuitDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Fingerprint != fp || doc.Info.Fingerprint != fp {
		return nil, fmt.Errorf("fingerprint mismatch (doc says %q)", doc.Fingerprint)
	}
	if len(doc.Netlist) == 0 {
		return nil, fmt.Errorf("document has no netlist")
	}
	return &doc, nil
}

// save persists one upload: temp file in the same directory, fsync-free
// write, atomic rename. Failures are logged and non-fatal — the upload
// still lives in the in-memory LRU.
func (d *circuitDisk) save(n *netlist.Netlist, info CircuitInfo) {
	var nlbuf bytes.Buffer
	if err := n.WriteJSON(&nlbuf); err != nil {
		d.logf("service: persisting upload %s: %v", info.Fingerprint, err)
		return
	}
	raw, err := json.Marshal(circuitDoc{
		Fingerprint: info.Fingerprint,
		Info:        info,
		Netlist:     json.RawMessage(bytes.TrimSpace(nlbuf.Bytes())),
	})
	if err != nil {
		d.logf("service: persisting upload %s: %v", info.Fingerprint, err)
		return
	}
	f, err := os.CreateTemp(d.dir, "."+info.Fingerprint+".tmp-")
	if err != nil {
		d.logf("service: persisting upload %s: %v", info.Fingerprint, err)
		return
	}
	tmp := f.Name()
	_, werr := f.Write(raw)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, filepath.Join(d.dir, info.Fingerprint+".json"))
	}
	if werr != nil {
		_ = os.Remove(tmp)
		d.logf("service: persisting upload %s: %v", info.Fingerprint, werr)
		return
	}
	d.mu.Lock()
	d.infos[info.Fingerprint] = info
	d.mu.Unlock()
}

// load reads, parses and verifies one persisted circuit. A document
// whose netlist fails to parse or no longer hashes to its fingerprint
// is dropped from the index and never served.
func (d *circuitDisk) load(fp string) (*netlist.Netlist, bool) {
	d.mu.Lock()
	_, known := d.infos[fp]
	d.mu.Unlock()
	if !known {
		return nil, false
	}
	doc, err := d.readDoc(fp)
	if err == nil {
		var n *netlist.Netlist
		n, err = netlist.ReadJSON(bytes.NewReader(doc.Netlist))
		if err == nil && n.Fingerprint() != fp {
			err = fmt.Errorf("netlist hashes to %s", n.Fingerprint())
		}
		if err == nil {
			return n, true
		}
	}
	d.logf("service: dropping corrupt upload %s: %v", fp, err)
	d.mu.Lock()
	delete(d.infos, fp)
	d.mu.Unlock()
	return nil, false
}

// fingerprintByName returns the fingerprint of a persisted circuit with
// the given module name (smallest fingerprint wins a collision, for
// determinism).
func (d *circuitDisk) fingerprintByName(name string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	best := ""
	for fp, info := range d.infos {
		if info.Name == name && (best == "" || fp < best) {
			best = fp
		}
	}
	return best, best != ""
}

// snapshot returns the handles of every persisted circuit.
func (d *circuitDisk) snapshot() []CircuitInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]CircuitInfo, 0, len(d.infos))
	for _, info := range d.infos {
		out = append(out, info)
	}
	return out
}
