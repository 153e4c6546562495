package uddi

import (
	"encoding/json"
	"fmt"

	"repro/internal/persist"
)

// WAL record ops. Mutation records carry the key-allocation sequence at the
// time they were logged so recovery restores it (the key-reuse bugfix: a
// rebooted registry must never mint a key an earlier incarnation already
// handed out). Snapshot dumps reuse the same ops, plus opSeq so an
// entity-free registry still recovers its sequence.
const (
	opBusiness   = "uddi.business"
	opTModel     = "uddi.tmodel"
	opService    = "uddi.service"
	opDelService = "uddi.delservice"
	opSeq        = "uddi.seq"
)

// record is the union WAL record for every registry mutation. Exactly one
// entity field is set per mutation op; Seq rides along on all of them.
type record struct {
	Seq      int64            `json:"seq,omitempty"`
	Business *BusinessEntity  `json:"business,omitempty"`
	TModel   *TModel          `json:"tModel,omitempty"`
	Service  *BusinessService `json:"service,omitempty"`
	Key      string           `json:"key,omitempty"`
}

// Persist replays st into the registry (which should be empty) and installs
// it as the registry's durability log: from here on every Save/Delete is
// acknowledged only after its record is fsynced. Call once, before the
// registry starts serving.
func (r *Registry) Persist(st persist.Store) error {
	if err := st.Replay(r.apply); err != nil {
		return err
	}
	r.persist = persist.Bind(st, r.dump)
	return nil
}

// log appends one mutation record when persistence is attached. The nil
// check comes before the record is boxed into Log's interface{} argument,
// so an in-memory registry's publish path allocates nothing for it.
func (r *Registry) log(op string, rec record) error {
	if r.persist == nil {
		return nil
	}
	return r.persist.Log(op, rec)
}

// ClosePersist flushes and closes the attached store, if any. The registry
// must have stopped serving writes.
func (r *Registry) ClosePersist() error {
	return r.persist.Close()
}

// CompactPersist forces one synchronous compaction (tests, operator hooks).
// Routine compaction is automatic and needs no calls.
func (r *Registry) CompactPersist() error {
	return r.persist.Compact()
}

// apply is the replay function: stored entities are upserted by key, so
// replaying a record that is also reflected in a snapshot is harmless, and
// the recovered sequence is the max over every record seen.
func (r *Registry) apply(op string, data []byte) error {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("uddi: replay %s: %w", op, err)
	}
	if rec.Seq > r.seq.Load() {
		r.seq.Store(rec.Seq)
	}
	switch op {
	case opBusiness:
		if rec.Business != nil {
			r.businesses.Store(rec.Business.Key, rec.Business)
		}
	case opTModel:
		if rec.TModel != nil {
			r.tmodels.Store(rec.TModel.Key, rec.TModel)
		}
	case opService:
		if rec.Service != nil {
			r.services.Store(rec.Service.Key, rec.Service)
		}
	case opDelService:
		r.services.Delete(rec.Key)
	case opSeq:
		// Sequence handled above.
	default:
		// Unknown op from a newer writer: skip rather than refuse to boot.
	}
	return nil
}

// dump re-emits current state for a compacting snapshot. The sequence goes
// first, captured before the entity walk: an entity published concurrently
// may carry a higher Seq in its own record, and replay takes the max.
func (r *Registry) dump(add func(op string, data []byte) error) error {
	if err := persist.AddJSON(add, opSeq, record{Seq: r.seq.Load()}); err != nil {
		return err
	}
	var err error
	r.businesses.Range(func(_ string, b *BusinessEntity) bool {
		err = persist.AddJSON(add, opBusiness, record{Business: b})
		return err == nil
	})
	if err != nil {
		return err
	}
	r.tmodels.Range(func(_ string, t *TModel) bool {
		err = persist.AddJSON(add, opTModel, record{TModel: t})
		return err == nil
	})
	if err != nil {
		return err
	}
	r.services.Range(func(_ string, s *BusinessService) bool {
		err = persist.AddJSON(add, opService, record{Service: s})
		return err == nil
	})
	return err
}
