package cluster

import (
	"errors"
	"fmt"

	"papimc/internal/pcp"
)

// Server serves a Federator over the PCP PDU protocol, so a tree can
// span processes and machines: a parent federator dials it like any
// daemon, and partial results travel as PDUFetchPartialResp.
//
// Tagged connections use Concurrent dispatch: each request runs in its
// own goroutine, so a fetch whose scatter is stalled on a hedging or
// dead edge does not head-of-line-block the requests queued behind it.
// At the federation tier per-request latency is dominated by downstream
// round trips, not handler CPU, so concurrency is where pipelining pays.
type Server struct {
	f   *Federator
	srv *pcp.Server
}

// Serve starts serving f on addr (e.g. "127.0.0.1:0") and returns the
// running server and its bound address.
func Serve(f *Federator, addr string) (*Server, string, error) {
	s := &Server{f: f}
	s.srv = pcp.NewServer(pcp.Concurrent, func() pcp.Handler { return s.handleReq })
	bound, err := s.srv.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}

// Close stops the listener, disconnects clients, and waits for handlers.
func (s *Server) Close() error { return s.srv.Close() }

// handleReq dispatches one request PDU to the federator and encodes the
// response. It keeps no per-connection scratch because the tagged path
// runs it from concurrent goroutines; at this tier the downstream
// scatter dwarfs the allocation cost.
func (s *Server) handleReq(dst []byte, req pcp.Request) (uint8, []byte) {
	switch req.Type {
	case pcp.PDUNamesReq:
		return pcp.PDUNamesResp, pcp.AppendNamesResp(dst, s.f.names)
	case pcp.PDUFetchReq:
		pmids, err := pcp.DecodeFetchReqInto(req.Payload, nil)
		if err != nil {
			return pcp.PDUError, pcp.AppendError(dst, err.Error())
		}
		res, ferr := s.f.Fetch(pmids)
		return s.answer(dst, res, ferr)
	case pcp.PDUFetchAllReq:
		res, ferr := s.f.FetchAll()
		return s.answer(dst, res, ferr)
	case pcp.PDUFetchBatchReq:
		sets, err := pcp.DecodeFetchBatchReqInto(req.Payload, nil)
		if err != nil {
			return pcp.PDUError, pcp.AppendError(dst, err.Error())
		}
		results, ferr := s.f.FetchBatch(sets)
		return s.answerBatch(dst, results, ferr)
	default:
		return pcp.PDUError, pcp.AppendError(dst, fmt.Sprintf("unknown PDU type %d", req.Type))
	}
}

// answer encodes a scatter-gather outcome: full results as a fetch
// response, partial results as PDUFetchPartialResp, hard failures as a
// PDU error.
func (s *Server) answer(dst []byte, res pcp.FetchResult, err error) (uint8, []byte) {
	var pe *pcp.PartialError
	switch {
	case err == nil:
		return pcp.PDUFetchResp, pcp.AppendFetchResp(dst, res)
	case errors.As(err, &pe):
		return pcp.PDUFetchPartialResp, pcp.AppendPartialResp(dst, res, pe.Missing, pe.Cause)
	default:
		return pcp.PDUError, pcp.AppendError(dst, err.Error())
	}
}

// answerBatch is answer for the batch PDU: partial outcomes ride in the
// batch response's own missing/cause header instead of a separate PDU
// type.
func (s *Server) answerBatch(dst []byte, results []pcp.FetchResult, err error) (uint8, []byte) {
	var pe *pcp.PartialError
	switch {
	case err == nil:
		return pcp.PDUFetchBatchResp, pcp.AppendFetchBatchResp(dst, results, nil, "")
	case errors.As(err, &pe):
		return pcp.PDUFetchBatchResp, pcp.AppendFetchBatchResp(dst, results, pe.Missing, pe.Cause)
	default:
		return pcp.PDUError, pcp.AppendError(dst, err.Error())
	}
}
