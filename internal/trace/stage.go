package trace

// Staged records. A retaining Recorder does not keep Events: it keeps
// fixed-size records with no pointers, whose strings are refs into a
// table the recorder owns. A staging slot then holds nothing the garbage
// collector scans and nothing a spill has to clear, a record is 24 bytes
// where an Event is 56, and BinarySink encodes records directly, mapping
// a ref to its frame's wire ref by index rather than by hashing the
// string. Every other consumer gets Events expanded from the records.

// Ref names a string in a Recorder's string table; 0 names "". Refs are
// stable for the recorder's lifetime: a broadcast resolves its tag once
// (Recorder.Intern) and records each delivery with it (RecordDeliver).
type Ref uint32

// wideKind in a staged record's kind marks an event whose kind or pid
// does not fit the record's fields: its pid field then indexes the
// table's wides, which hold both.
const wideKind = ^uint32(0)

// staged is one retained event as a recorder stages it: 24 bytes, no
// pointer.
type staged struct {
	time   int64
	pid    int32
	kind   uint32
	tag    Ref
	detail Ref
}

// wide is the kind and pid of an event too wide for a staged record.
type wide struct {
	kind Kind
	pid  int
}

// strTable interns the strings of staged records, and the kind and pid
// of the rare event too wide for one. It only grows and lasts as long as
// its recorder (or BinarySink), so what bounds it is the number of
// distinct tags, details and wide (kind, pid) pairs the run records, not
// the number of events: the engine's tags are its message types, its
// details a few fixed phrases, one per timer tag, decision value and
// round, and detector output, and its pids fit a record.
type strTable struct {
	strs     []string // ref r names strs[r-1]
	refs     map[string]Ref
	last     string // the string intern returned a ref for last, "" = none
	lastRef  Ref
	wides    []wide
	wideRefs map[wide]int32
}

// intern returns s's ref, adding s to the table on first use. The string
// it interned last is checked before the map: a batch of Events mostly
// repeats its tag, and comparing a string with itself is cheaper than
// hashing it.
func (t *strTable) intern(s string) Ref {
	if s == "" {
		return 0
	}
	if s == t.last {
		return t.lastRef
	}
	r, ok := t.refs[s]
	if !ok {
		if t.refs == nil {
			t.refs = make(map[string]Ref)
		}
		t.strs = append(t.strs, s)
		r = Ref(len(t.strs))
		t.refs[s] = r
	}
	t.last, t.lastRef = s, r
	return r
}

// stage writes e into x as a staged record over t. It writes the fields
// in place: a record built elsewhere and copied in is read back with
// wider loads than its fields were stored with, which stalls.
func (t *strTable) stage(x *staged, e *Event) {
	x.time, x.pid, x.kind = e.Time, int32(e.PID), uint32(e.Kind)
	x.tag, x.detail = t.intern(e.MsgTag), t.intern(e.Detail)
	if int(x.pid) != e.PID || Kind(x.kind) != e.Kind || x.kind == wideKind {
		w := wide{e.Kind, e.PID}
		i, ok := t.wideRefs[w]
		if !ok {
			if t.wideRefs == nil {
				t.wideRefs = make(map[wide]int32)
			}
			i = int32(len(t.wides))
			t.wides = append(t.wides, w)
			t.wideRefs[w] = i
		}
		x.kind, x.pid = wideKind, i
	}
}

// view returns the table as it is now, for a reader on another
// goroutine. The table only appends, so the entries a view holds are
// never written again, and it can be read while the table grows.
func (t *strTable) view() tableView {
	return tableView{strs: t.strs, wides: t.wides, owner: t}
}

// tableView is a strTable as of one moment: what a spill reads the
// records staged up to then against. owner identifies the table the refs
// belong to; the view never reads through it.
type tableView struct {
	strs  []string
	wides []wide
	owner *strTable
}

func (v *tableView) str(r Ref) string {
	if r == 0 {
		return ""
	}
	return v.strs[r-1]
}

// event expands a staged record.
func (v *tableView) event(x *staged) Event {
	e := Event{Time: x.time, Kind: Kind(x.kind), PID: int(x.pid), MsgTag: v.str(x.tag), Detail: v.str(x.detail)}
	if x.kind == wideKind {
		w := v.wides[x.pid]
		e.Kind, e.PID = w.kind, w.pid
	}
	return e
}

// expand appends the Events of recs to dst.
func (v *tableView) expand(dst []Event, recs []staged) []Event {
	for i := range recs {
		dst = append(dst, v.event(&recs[i]))
	}
	return dst
}
