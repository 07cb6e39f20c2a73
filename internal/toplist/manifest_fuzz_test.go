package toplist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var badProviders = []string{"", ".", "..", "../escaped", "a/b", `a\b`, "/abs", `..\escaped`}

// TestDiskStoreRejectsBadProviders: a provider name that is not one
// local path element fails Put and PutRaw with ErrBadProvider, and
// nothing is created inside or beside the archive directory.
func TestDiskStoreRejectsBadProviders(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "archive")
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := New([]string{"a.com"})
	if err := ds.Put("alexa", 0, l); err != nil {
		t.Fatal(err)
	}
	raw, err := ds.GetRaw("alexa", 0)
	if err != nil || raw == nil {
		t.Fatalf("GetRaw = %v, %v", raw, err)
	}
	for _, p := range badProviders {
		if err := ds.Put(p, 1, l); !errors.Is(err, ErrBadProvider) {
			t.Errorf("Put(%q) = %v, want ErrBadProvider", p, err)
		}
		if err := ds.PutRaw(p, 1, raw.Data); !errors.Is(err, ErrBadProvider) {
			t.Errorf("PutRaw(%q) = %v, want ErrBadProvider", p, err)
		}
	}
	if got := ds.Providers(); !slices.Equal(got, []string{"alexa"}) {
		t.Errorf("providers = %q, want [alexa]", got)
	}
	for d, want := range map[string][]string{root: {"archive"}, dir: {"alexa", manifestName}} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s holds %q after rejected writes, want %q", d, got, want)
		}
	}
}

// TestOpenArchiveRejectsBadManifestProviders: a manifest naming a
// provider outside the archive directory, or one provider twice, does
// not open.
func TestOpenArchiveRejectsBadManifestProviders(t *testing.T) {
	for _, tc := range []struct {
		providers []string
		bad       bool
	}{
		{[]string{"alexa", "../escaped"}, true},
		{[]string{".."}, true},
		{[]string{""}, true},
		{[]string{"alexa", "alexa"}, false},
	} {
		dir := t.TempDir()
		writeManifest(t, dir, manifest{Version: manifestVersion, FirstDay: "2017-06-06", LastDay: "2017-06-08", Providers: tc.providers})
		_, err := OpenArchive(dir)
		if err == nil {
			t.Fatalf("providers %q: archive opened", tc.providers)
		}
		if errors.Is(err, ErrBadProvider) != tc.bad {
			t.Fatalf("providers %q: err = %v, ErrBadProvider expected %v", tc.providers, err, tc.bad)
		}
	}
}

func writeManifest(t testing.TB, dir string, man manifest) {
	t.Helper()
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenArchive writes arbitrary bytes as a DiskStore manifest. Either
// OpenArchive refuses them, or the store it returns reports the
// manifest's day range and answers Providers, Has, Missing, Corrupt and
// VerifyReport without panicking. Opening allocates in proportion to
// the manifest and the snapshot files (here none), never to the day
// range it declares.
func FuzzOpenArchive(f *testing.F) {
	dir := f.TempDir()
	ds, err := CreateDiskStore(dir, 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"alexa", "umbrella"} {
		if err := ds.Put(p, 1, New([]string{"a.com", "b.org"})); err != nil {
			f.Fatal(err)
		}
	}
	if err := ds.Expect("alexa", "umbrella", "majestic"); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(strings.Replace(string(valid), `"version": 2`, `"version": 1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"version": 2`, `"version": 3`, 1)))
	for _, s := range []string{
		`{"version":2,"first_day":"2017-13-01","last_day":"2017-06-08","providers":["alexa"]}`,
		`{"version":2,"first_day":"2017-06-06","last_day":"yesterday","providers":["alexa"]}`,
		`{"version":2,"first_day":"2017-06-08","last_day":"2017-06-06","providers":["alexa"]}`,
		`{"version":2,"first_day":"0001-01-01","last_day":"9999-12-31","providers":["alexa","umbrella"]}`,
		`{"version":2,"first_day":"1800-01-01","last_day":"2300-01-01","providers":["alexa","umbrella"]}`,
		`{"version":2,"first_day":"2017-06-06","last_day":"2017-06-08","providers":["../escaped"]}`,
		`{"version":2,"first_day":"2017-06-06","last_day":"2017-06-08","providers":["a","a"],"expected":["a","a"]}`,
		`{"version":2,"first_day":"2017-06-06","last_day":"2017-06-08","hashes":{"a":{"2017-06-06":"x"}}}`,
		`{"version":1}`, `[]`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := OpenArchive(dir)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 64<<10+64*uint64(len(data)); alloc > limit {
			t.Fatalf("OpenArchive of a %d-byte manifest allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		var man manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("OpenArchive accepted a manifest that does not decode: %v", err)
		}
		if ds.First().String() != man.FirstDay || ds.Last().String() != man.LastDay {
			t.Fatalf("manifest range %s..%s opened as %v..%v", man.FirstDay, man.LastDay, ds.First(), ds.Last())
		}
		owed := len(man.Expected)
		for _, p := range ds.Providers() {
			if !slices.Contains(man.Expected, p) {
				owed++
			}
			for _, d := range []Day{ds.First() - 1, ds.First(), ds.Last(), ds.Last() + 1} {
				if ds.Has(p, d) {
					t.Fatalf("Has(%q, %v) with no snapshot files", p, d)
				}
			}
		}
		// Missing lists one stub per owed slot by contract; past a few
		// million stubs a call only measures memory, not the code.
		if owed*ds.Days() <= 1<<22 {
			if got := len(ds.Missing()); got != owed*ds.Days() {
				t.Fatalf("Missing lists %d slots, want %d", got, owed*ds.Days())
			}
		}
		if c := ds.Corrupt(); len(c) != 0 {
			t.Fatalf("Corrupt = %v with no snapshot files", c)
		}
		if rep := ds.VerifyReport(); rep.HashVerified+rep.DecodeOnly+len(rep.Corrupt) != 0 {
			t.Fatalf("VerifyReport = %+v with no snapshot files", rep)
		}
	})
}
