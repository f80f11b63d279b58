package serve

import (
	"testing"

	"adaptivetc/internal/sched"
)

// BenchmarkServeRoundTrip measures one in-process job round trip through
// the service: Submit → weighted-fair queue → pool dispatch → <-Done() of
// fib(10) on a 2-worker pool. No HTTP, no journal, no invariant checker,
// so ns/op and allocs/op are the admission and lifecycle overhead the
// service adds on top of BenchmarkPoolRoundTrip plus the job itself.
func BenchmarkServeRoundTrip(b *testing.B) {
	s := New(Config{Workers: 2, QueueCapacity: 8, Options: sched.Options{GrowableDeque: true}})
	defer s.Close()
	req := Request{Program: "fib", N: 10}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if st, res, err := job.Snapshot(); st != StateDone || res.Value != 55 {
			b.Fatalf("state=%s value=%d err=%v, want done/55", st, res.Value, err)
		}
	}
}
