package oasis

import (
	"reflect"

	"oasis/internal/bus"
	"oasis/internal/credrec"
	"oasis/internal/value"
)

// NeverWaits reads the op table as a served connection's read loop
// does: whether a call of op whose argument decodes to arg runs on the
// loop. An argument of another type than the row's decodes as an owned
// value, which goes to a worker.
func (s *Service) NeverWaits(op string, arg any) bool {
	for _, row := range s.ops {
		switch r := row.(type) {
		case *bus.Op[GetTypesArg, []value.Type]:
			if ok, named := declared(r, op, arg); named {
				return ok
			}
		case *bus.Op[ValidateArg, ValidateReply]:
			if ok, named := declared(r, op, arg); named {
				return ok
			}
		case *bus.Op[ResyncArg, ResyncReply]:
			if ok, named := declared(r, op, arg); named {
				return ok
			}
		}
	}
	return false
}

// rowShape reads a row of the op table: its name, its payload tags,
// and whether it declares any call never to wait.
func rowShape(row bus.ServedOp) (name string, argTag, replyTag byte, inline bool) {
	switch r := row.(type) {
	case *bus.Op[GetTypesArg, []value.Type]:
		return r.Name, r.ArgTag, r.ReplyTag, r.NeverWaits != nil
	case *bus.Op[ValidateArg, ValidateReply]:
		return r.Name, r.ArgTag, r.ReplyTag, r.NeverWaits != nil
	case *bus.Op[ResyncArg, ResyncReply]:
		return r.Name, r.ArgTag, r.ReplyTag, r.NeverWaits != nil
	}
	panic("oasis: a row of an unknown shape")
}

// declared reports whether a row named op declares a call with arg
// never to wait, and whether the row is named op.
func declared[A, R any](r *bus.Op[A, R], op string, arg any) (ok, named bool) {
	if r.Name != op {
		return false, false
	}
	a, isA := arg.(A)
	return isA && r.NeverWaits != nil && r.NeverWaits(a), true
}

// The tables a watch occupies, and the broker's registrations it must
// not, sized for TestWatchTablesTrackLiveRecords. The broker's and the
// receiver's are another package's unexported maps and internal/event
// exports no census of them (nothing the daemon runs wants one), so
// their lengths are read by reflection; call these on a quiescent
// service only.

// watchRows counts (record, peer) watches this service holds as issuer.
func (s *Service) watchRows() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	n := 0
	for _, row := range s.watches {
		n += len(row)
	}
	return n
}

// brokerRegistrations counts the broker's live registrations.
func (s *Service) brokerRegistrations() int {
	return reflect.ValueOf(s.broker).Elem().FieldByName("regs").Len()
}

// surrogateRows counts the remote records this service holds a
// surrogate for as watcher.
func (s *Service) surrogateRows() int {
	s.extMu.Lock()
	defer s.extMu.Unlock()
	n := 0
	for _, rows := range s.extRecords {
		n += len(rows)
	}
	return n
}

// receiverHandlers counts the handlers installed on the receiver.
func (s *Service) receiverHandlers() int {
	return reflect.ValueOf(s.receiver).Elem().FieldByName("srcHandlers").Len()
}

// groupEntries counts the (member, group) records the group table holds
// as interesting (§4.8.1), for TestDutiesReclaimRevokedGraphs; read by
// reflection for the same reason, on a quiescent service only.
func (s *Service) groupEntries() int {
	shards := reflect.ValueOf(s.groups).Elem().FieldByName("shards")
	n := 0
	for i := 0; i < shards.Len(); i++ {
		n += shards.Index(i).FieldByName("interesting").Len()
	}
	return n
}

// watchRecord holds a surrogate of another member's record the way a
// ring member deploys one, through the flat watch: the row first, as
// validateForeign makes it, then a resync that subscribes this service
// at the owner and reads the record's state into the row.
func (s *Service) watchRecord(owner string, ref credrec.Ref) (credrec.Ref, error) {
	local, _ := s.surrogateFor(owner, ref)
	return local, s.ResyncSource(owner)
}

// settle waits until no resync of any source is in flight: the tests
// that drive a tick, a revival or a gap read its outcome once the
// resync it started has applied its snapshot and delivered what it held.
func (s *Service) settle() {
	for {
		var done chan struct{}
		s.suspMu.Lock()
		for _, r := range s.resyncing {
			done = r.done
			break
		}
		s.suspMu.Unlock()
		if done == nil {
			return
		}
		<-done
	}
}
