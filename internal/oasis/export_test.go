package oasis

import (
	"reflect"

	"oasis/internal/credrec"
)

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
