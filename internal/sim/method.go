package sim

// Method is a simulation method process, the analogue of a SystemC
// SC_METHOD: a callback executed by the kernel in the evaluate phase whenever
// one of the events in its sensitivity list fires. Method functions run to
// completion and must not call the Wait primitives.
type Method struct {
	k      *Kernel
	name   string
	fn     func()
	queued bool
	// lastTrigger is the event whose firing queued this method, nil when the
	// method was queued by Trigger or at elaboration.
	lastTrigger *Event
	// strand marks a Strand's method, which queues with the processes.
	strand bool
}

// NewMethod creates a method process sensitive to the given events. With
// initial true the method is also triggered once at the start of the
// simulation (SystemC's default initialization of methods).
func (k *Kernel) NewMethod(name string, fn func(), initial bool, sensitivity ...*Event) *Method {
	if fn == nil {
		panic("sim: NewMethod with nil function")
	}
	m := &Method{k: k, name: name, fn: fn}
	for _, e := range sensitivity {
		e.methods = append(e.methods, m)
	}
	if initial {
		m.Trigger()
	}
	return m
}

// Name returns the method's name.
func (m *Method) Name() string { return m.name }

// LastTrigger returns the event that caused the current/last execution, or
// nil for the initial execution or a manual Trigger.
func (m *Method) LastTrigger() *Event { return m.lastTrigger }

// Trigger queues the method to run in the current evaluate phase regardless
// of its sensitivity list.
func (m *Method) Trigger() { m.trigger(nil) }

// trigger queues the method on behalf of the firing event e (nil for
// Trigger): a plain method ahead of the runnable processes, a strand's among
// them.
func (m *Method) trigger(e *Event) {
	if m.queued {
		return
	}
	m.queued = true
	m.lastTrigger = e
	if m.strand {
		m.k.runQueue.push(runnable{m: m})
	} else {
		m.k.methodQueue.push(m)
	}
}

// run executes the method body once.
func (m *Method) run() {
	m.queued = false
	m.fn()
}
