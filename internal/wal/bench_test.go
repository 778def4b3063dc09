package wal

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// benchRec is the size of a lockproto grant record.
var benchRec = []byte(`{"k":"grant","d":3,"i":"c1-d3-12345","t":23456}`)

// appendSync is one committer round at its smallest.
func appendSync(s *Store) error {
	lsn, err := s.Append(benchRec)
	if err == nil {
		err = s.Sync(lsn)
	}
	return err
}

// BenchmarkStoreAppendSync is one journal record appended and synced by the
// same goroutine. "always" is
// bound by the file system's fsync; "interval" is the store's own cost, and
// allocates nothing.
func BenchmarkStoreAppendSync(b *testing.B) {
	for _, pol := range []Policy{PolicyAlways, PolicyInterval} {
		b.Run(pol.String(), func(b *testing.B) {
			s, _ := openT(b, b.TempDir(), Options{Policy: pol})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := appendSync(s); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStoreGroupCommit runs 8 appenders that each sync their own record
// under PolicyAlways; fsyncs/op below 1 is group commit at work.
func BenchmarkStoreGroupCommit(b *testing.B) {
	var fsyncs metrics.Counter
	s, _ := openT(b, b.TempDir(), Options{Policy: PolicyAlways, Fsyncs: &fsyncs})
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := appendSync(s); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(fsyncs.Value())/float64(b.N), "fsyncs/op")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
