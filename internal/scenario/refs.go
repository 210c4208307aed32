package scenario

import "fmt"

// This file is the op-reference table: for every op the scenario language
// accepts, which model objects it names. Validation checks that each
// reference exists, the partitioner co-locates the users of each object and
// the schedule explorer turns references into conflict footprints, all
// from this one table. What an op does lives in compileOps.

// RefKind is the kind of model object an op can name.
type RefKind uint8

const (
	RefEvent RefKind = iota
	RefQueue
	RefShared
	RefConstraint
	RefTrace
	RefWatchdog
	RefIRQ
	RefServer
	RefChannel
	numRefKinds
)

// refKinds gives each kind its name in validation errors and the op field
// that holds a reference of the kind.
var refKinds = [numRefKinds]struct {
	label string
	field func(*Op) string
}{
	RefEvent:      {"event", func(op *Op) string { return op.Event }},
	RefQueue:      {"queue", func(op *Op) string { return op.Queue }},
	RefShared:     {"shared variable", func(op *Op) string { return op.Shared }},
	RefConstraint: {"constraint", func(op *Op) string { return op.Constraint }},
	RefTrace:      {"trace", func(op *Op) string { return op.Trace }},
	RefWatchdog:   {"watchdog", func(op *Op) string { return op.Watchdog }},
	RefIRQ:        {"irq", func(op *Op) string { return op.IRQ }},
	RefServer:     {"server", func(op *Op) string { return op.Server }},
	RefChannel:    {"channel", func(op *Op) string { return op.Channel }},
}

// String is the kind's name as validation errors spell it.
func (k RefKind) String() string { return refKinds[k].label }

// RefRole says how an op uses a channel: sending and receiving couple
// different parties. Every other reference is RoleUse.
type RefRole uint8

const (
	RoleUse RefRole = iota
	RoleSend
	RoleRecv
)

// Ref is one object an op names.
type Ref struct {
	Kind RefKind
	Role RefRole
	Name string
}

// refField is one object-naming field of an op. An optional field names
// nothing when empty.
type refField struct {
	kind     RefKind
	role     RefRole
	optional bool
}

// opRefs is the table: every accepted op, with the fields that name objects.
// An op missing here is an unknown operation.
var opRefs = map[string][]refField{
	"execute":         nil,
	"execute_trace":   {{kind: RefTrace}},
	"delay":           nil,
	"wait":            {{kind: RefEvent}},
	"signal":          {{kind: RefEvent}},
	"put":             {{kind: RefQueue}},
	"get":             {{kind: RefQueue}},
	"tryput":          {{kind: RefQueue}},
	"lock":            {{kind: RefShared}},
	"unlock":          {{kind: RefShared}},
	"read":            {{kind: RefShared}},
	"write":           {{kind: RefShared}},
	"nopreempt_begin": nil,
	"nopreempt_end":   nil,
	"setprio":         nil,
	"yield":           nil,
	"lat_start":       {{kind: RefConstraint}},
	"lat_stop":        {{kind: RefConstraint}},
	"kick":            {{kind: RefWatchdog}},
	"raise":           {{kind: RefIRQ}},
	"send":            {{kind: RefChannel, role: RoleSend}},
	"recv":            {{kind: RefChannel, role: RoleRecv}},
	"submit":          {{kind: RefServer}, {kind: RefConstraint, optional: true}},
	"repeat":          nil,
}

// refs yields the objects op names itself; a repeat's body is not
// descended (see EachRef).
func (op *Op) refs(yield func(Ref) bool) {
	for _, f := range opRefs[op.Op] {
		name := refKinds[f.kind].field(op)
		if name == "" && f.optional {
			continue
		}
		if !yield(Ref{Kind: f.kind, Role: f.role, Name: name}) {
			return
		}
	}
}

// EachRef calls fn for every object body names, repeat bodies included.
func EachRef(body []Op, fn func(Ref)) {
	for i := range body {
		op := &body[i]
		for r := range op.refs {
			fn(r)
		}
		if op.Op == "repeat" {
			EachRef(op.Body, fn)
		}
	}
}

// Objects indexes the objects ops can name: per kind, every declared name
// mapped to what the object belongs to — its processor for a watchdog, IRQ
// or server, its bus for a channel, "" for the other kinds.
type Objects [numRefKinds]map[string]string

// Objects indexes a validated scenario's objects.
func (s *System) Objects() Objects {
	o, _ := s.objects()
	return o
}

// objects builds the index, reporting the first name declared twice for one
// kind. A kind with no objects keeps a nil map.
func (s *System) objects() (Objects, error) {
	var o Objects
	var err error
	add := func(k RefKind, name, owner string) {
		if o[k] == nil {
			o[k] = map[string]string{}
		}
		if _, dup := o[k][name]; dup && err == nil {
			err = fmt.Errorf("scenario: duplicate %s %q", k, name)
		}
		o[k][name] = owner
	}
	for _, e := range s.Events {
		add(RefEvent, e.Name, "")
	}
	for _, q := range s.Queues {
		add(RefQueue, q.Name, "")
	}
	for _, v := range s.Shared {
		add(RefShared, v.Name, "")
	}
	for _, c := range s.Constraints {
		add(RefConstraint, c.Name, "")
	}
	for name := range s.Traces {
		add(RefTrace, name, "")
	}
	for _, w := range s.Watchdogs {
		add(RefWatchdog, w.Name, w.Processor)
	}
	for _, q := range s.IRQs {
		add(RefIRQ, q.Name, q.Processor)
	}
	for _, sv := range s.Servers {
		add(RefServer, sv.Name, sv.Processor)
	}
	for _, c := range s.Channels {
		add(RefChannel, c.Name, c.Bus)
	}
	return o, err
}
