package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	paradise "paradise"
)

// verification is what the oracle pass established besides "correct".
type verification struct {
	statements int
	raw        int64 // Σ raw_bytes of the answered statements
	egress     int64 // Σ egress_bytes
	// exportBody is the largest response seen, kept for replaying the
	// harness's own response reader (bench.client_us_per_krow).
	exportBody []byte
	exportRows int
}

// verify runs every pooled statement once through Session.Query and once
// over HTTP with full decoding, and checks both against the answer the
// class's oracle computes from the harness's own rows: the column set, the
// row count, every value (aggregates to aggTolerance), and that the two
// entry points agree row for row. It fills in pool.rows, the result sizes
// the timed window checks against. The first mismatch ends the run.
func verify(sys *system, c *corpus, pools []*pool) (verification, error) {
	var v verification
	hc := newHTTPClient(sys.base)
	defer hc.close()
	for _, p := range pools {
		for li, l := range p.lits {
			sql := p.sqls[li]
			fail := func(err error) (verification, error) {
				return v, fmt.Errorf("verify %s %q: %w", p.cls.name, sql, err)
			}
			if p.cls.denied {
				if err := verifyDenied(sys, hc, p.cls.tenant, sql); err != nil {
					return fail(err)
				}
				v.statements++
				continue
			}
			want := p.cls.oracle(c, l)

			cur, err := sys.sess[p.cls.tenant].Query(context.Background(), sql)
			if err != nil {
				return fail(fmt.Errorf("Session.Query: %w", err))
			}
			got, err := cursorAnswer(cur)
			if err != nil {
				return fail(fmt.Errorf("Session.Query: %w", err))
			}
			stats, err := cur.Stats()
			if err != nil {
				return fail(err)
			}
			if p.cls.check != nil {
				err = p.cls.check(c, l, want, got)
			} else {
				err = matchUnordered(want, got, p.cls.key)
			}
			if err != nil {
				return fail(fmt.Errorf("against the oracle: %w", err))
			}
			if p.cls.tenant == tenantClimate {
				for _, col := range got.cols {
					if strings.EqualFold(col, "sensor_id") {
						return fail(errors.New("sensor_id released under the climate policy"))
					}
				}
			}

			rep, err := hc.do(p.cls.tenant, sql)
			if err != nil {
				return fail(err)
			}
			if rep.status != http.StatusOK || rep.last.Type != "stats" {
				return fail(fmt.Errorf("HTTP status %d, last line %s: %s", rep.status, rep.last.Type, rep.last.Message))
			}
			overHTTP, err := decodeBody(hc.body.Bytes())
			if err != nil {
				return fail(err)
			}
			if err := matchExact(got, overHTTP); err != nil {
				return fail(fmt.Errorf("HTTP against Session.Query: %w", err))
			}
			if rep.last.Rows != len(got.rows) || rep.rows != len(got.rows) {
				return fail(fmt.Errorf("trailer says %d rows, body has %d, Session.Query returned %d", rep.last.Rows, rep.rows, len(got.rows)))
			}
			if rep.last.RawBytes != int64(stats.RawBytes) || rep.last.EgressBytes != int64(stats.EgressBytes) {
				return fail(fmt.Errorf("trailer bytes %d/%d, RunStats %d/%d", rep.last.RawBytes, rep.last.EgressBytes, stats.RawBytes, stats.EgressBytes))
			}

			p.rows[li] = len(got.rows)
			v.statements++
			v.raw += int64(stats.RawBytes)
			v.egress += int64(stats.EgressBytes)
			if rep.rows > v.exportRows {
				v.exportRows = rep.rows
				v.exportBody = append(v.exportBody[:0], hc.body.Bytes()...)
			}
		}
	}
	return v, nil
}

// verifyDenied checks the paper's second promise: a denied statement is
// refused at both entry points, touches no data and leaves a denial in the
// journal each time.
func verifyDenied(sys *system, hc *httpClient, tenant, sql string) error {
	opened := sys.store.StorageStats().SegmentsOpened
	denials := len(sys.journal.Denials())

	if _, err := sys.sess[tenant].Query(context.Background(), sql); !errors.Is(err, paradise.ErrPolicyViolation) {
		return fmt.Errorf("Session.Query returned %v, want ErrPolicyViolation", err)
	}
	rep, err := hc.do(tenant, sql)
	if err != nil {
		return err
	}
	if rep.status != http.StatusForbidden || rep.last.Code != "policy_violation" {
		return fmt.Errorf("HTTP status %d code %q, want 403 policy_violation", rep.status, rep.last.Code)
	}
	if d := sys.store.StorageStats().SegmentsOpened - opened; d != 0 {
		return fmt.Errorf("denied statement opened %d segments", d)
	}
	if d := len(sys.journal.Denials()) - denials; d != 2 {
		return fmt.Errorf("journal gained %d denials for 2 refusals", d)
	}
	return nil
}
