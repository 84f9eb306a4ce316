package database

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// FuzzLoadSnapshot checks the snapshot reader never panics or accepts
// structurally invalid input silently. Seeds include valid snapshots and
// systematic corruptions of one.
func FuzzLoadSnapshot(f *testing.F) {
	// A valid snapshot as the primary seed.
	src := New(term.NewBank(symtab.New()))
	if err := src.LoadText("up(a,b). n(7). l([1,2])."); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations.
	for _, n := range []int{0, 3, 5, 8, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	// Single-byte corruptions.
	for i := 5; i < len(valid); i += 7 {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		f.Add(c)
	}
	f.Add([]byte("LCDB1"))
	f.Add([]byte("LCDB2"))
	f.Add([]byte("not a snapshot at all"))
	// Legacy V1 form of the primary seed (same payload, old magic, no
	// CRC trailer), plus truncations of it: the pre-trailer parser path.
	v1 := append([]byte(snapshotMagicV1), valid[len(snapshotMagicV2):len(valid)-4]...)
	f.Add(v1)
	f.Add(v1[:len(v1)-3])
	f.Add(v1[:len(v1)/2])
	// A V2 snapshot with a flipped payload byte and a fixed-up trailer:
	// the checksum passes, so the staged parser must reject it for
	// structural reasons or accept it cleanly — never merge halfway.
	fixed := append([]byte(nil), valid...)
	fixed[7] ^= 0x10
	binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(fixed[:len(fixed)-4]))
	f.Add(fixed)
	// A cyclic-graph snapshot (the workload that exercises the budget
	// guards at evaluation time), plus corruptions of it.
	cyc := New(term.NewBank(symtab.New()))
	if err := cyc.LoadText("up(a,b). up(b,c). up(c,a). flat(b,f). down(f,g). down(g,h). stop(99999999999)."); err != nil {
		f.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := Save(&cbuf, cyc); err != nil {
		f.Fatal(err)
	}
	cvalid := cbuf.Bytes()
	f.Add(cvalid)
	f.Add(cvalid[:len(cvalid)/3])
	for i := 9; i < len(cvalid); i += 11 {
		c := append([]byte(nil), cvalid...)
		c[i] ^= 0x55
		f.Add(c)
	}

	// Arena-rebuild seeds: the loader reconstructs each relation's arena,
	// dedup table and indexes from the byte stream, so seed the shapes
	// that stress that path — a declared-but-empty relation, an arity-0
	// (propositional) relation, and a relation sized to land exactly on
	// the open-addressing growth boundary (capacity 16 × load factor 3/4
	// ⇒ rehash at the 12th row).
	arena := New(term.NewBank(symtab.New()))
	if _, err := arena.Ensure(arena.Bank().Symbols().Intern("empty"), 2); err != nil {
		f.Fatal(err)
	}
	if err := arena.LoadText("flag."); err != nil {
		f.Fatal(err)
	}
	grow := make([]byte, 0, 256)
	grow = append(grow, "grow(0)."...)
	for i := 1; i < 13; i++ {
		grow = append(grow, " grow("...)
		grow = append(grow, byte('0'+i/10), byte('0'+i%10))
		grow = append(grow, ")."...)
	}
	if err := arena.LoadText(string(grow)); err != nil {
		f.Fatal(err)
	}
	var abuf bytes.Buffer
	if err := Save(&abuf, arena); err != nil {
		f.Fatal(err)
	}
	avalid := abuf.Bytes()
	f.Add(avalid)
	f.Add(avalid[:len(avalid)-5])
	for i := 6; i < len(avalid); i += 13 {
		c := append([]byte(nil), avalid...)
		c[i] ^= 0x0f
		f.Add(c)
	}

	// Term-bank seeds: ground atoms are stored as rows, not interned, so
	// the seeds above carry few bank entries. Seed a snapshot whose
	// arguments are nested compounds and lists, so the bank section and
	// the row cells that reference it are corrupted too.
	nested := New(term.NewBank(symtab.New()))
	if err := nested.LoadText("p(f(a,g(1))). p(f(b,g(2))). q([x,y,z],h(p(2),[])). r(g(1),f(a,g(1)))."); err != nil {
		f.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := Save(&nbuf, nested); err != nil {
		f.Fatal(err)
	}
	nvalid := nbuf.Bytes()
	f.Add(nvalid)
	f.Add(nvalid[:len(nvalid)*2/3])
	for i := 7; i < len(nvalid); i += len(nvalid) / 12 {
		c := append([]byte(nil), nvalid...)
		c[i] ^= 0x21
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		db := New(term.NewBank(symtab.New()))
		if err := Load(bytes.NewReader(data), db); err != nil {
			return // rejection is fine
		}
		// Anything accepted must re-save and re-load to identical text.
		var out bytes.Buffer
		if err := Save(&out, db); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		db2 := New(term.NewBank(symtab.New()))
		if err := Load(bytes.NewReader(out.Bytes()), db2); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if db.Format() != db2.Format() {
			t.Fatal("snapshot round trip diverged")
		}
	})
}
