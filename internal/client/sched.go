package client

import "wgtt/internal/sim"

// task is one migration-safe client-side timer: the absolute fire time
// survives a cross-domain move even though the underlying loop event
// does not.
type task struct {
	at sim.Time
	fn func()
	ev *sim.Event
}

// Sched is a timer scheduler bound to the client's owning event loop.
// Unlike scheduling on a captured *sim.Loop, timers placed here follow
// the client across segment-domain migrations: Detach cancels the
// pending loop events and Attach re-arms them on the adopting domain's
// loop, no earlier than its current time. Client-side traffic sources
// (CBR uplink, conferencing) must use this so their emission callbacks
// never run in a domain that no longer owns the client's state.
//
// Sched satisfies transport.Sched, as *sim.Loop does; the two are
// interchangeable where the client never migrates: every timer lands on
// the same loop at the same times.
type Sched struct{ c *Client }

// Sched returns the client's migration-safe scheduler.
func (c *Client) Sched() Sched { return Sched{c} }

// Now returns the owning loop's current time.
func (s Sched) Now() sim.Time { return s.c.loop.Now() }

// After schedules fn d after now on the owning loop. The returned event
// is valid for Cancel until the client next migrates; a stale handle
// cancels nothing (the source's own running flag must gate re-arming).
func (s Sched) After(d sim.Duration, fn func()) *sim.Event {
	c := s.c
	t := &task{at: c.loop.Now().Add(d), fn: fn}
	c.tasks = append(c.tasks, t)
	c.armTask(t)
	return t.ev
}

// Cancel drops a pending timer by its event handle.
func (s Sched) Cancel(ev *sim.Event) {
	c := s.c
	if ev == nil {
		return
	}
	for i, t := range c.tasks {
		if t.ev == ev {
			c.loop.Cancel(ev)
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			return
		}
	}
}

// armTask schedules a task on the current loop. A fire time in the past
// (the task traveled across a migration's mailbox delay) clamps to now.
func (c *Client) armTask(t *task) {
	at := t.at
	if now := c.loop.Now(); at.Before(now) {
		at = now
	}
	// AtKeep: sources hold the returned handle across migrations and may
	// Cancel it long after it fired; a recycled event would alias a live
	// timer, so task events stay out of the loop's free list.
	t.ev = c.loop.AtKeep(at, func() {
		c.removeTask(t)
		t.fn()
	})
}

// removeTask unlinks a fired task.
func (c *Client) removeTask(t *task) {
	for i, x := range c.tasks {
		if x == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			return
		}
	}
}
