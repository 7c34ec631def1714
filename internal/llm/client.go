// Package llm provides the LLM-agent layer of UVLLM: a chat-completions-
// shaped client interface, the repair prompt formats of paper Fig. 4, the
// Structured-Outputs JSON parsing of agent replies, and two client
// implementations — a Scripted client for tests and a calibrated stochastic
// Oracle that stands in for GPT-4-turbo (see DESIGN.md: the repository is
// offline, so the text generator is simulated while every byte of pipeline
// code around it is real).
package llm

import (
	"fmt"
	"strings"
)

// Message is one chat turn.
type Message struct {
	Role    string // "system", "user", "assistant"
	Content string
}

// Request is a chat-completion request in the OpenAI API's shape.
type Request struct {
	Model          string
	Messages       []Message
	ResponseFormat string // "json_object" activates structured outputs
	Temperature    float64
	MaxTokens      int
}

// Text concatenates all message contents (used for marker detection and
// token accounting).
func (r Request) Text() string {
	n := 0
	for _, m := range r.Messages {
		n += len(m.Content) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, m := range r.Messages {
		b.WriteString(m.Content)
		b.WriteString("\n")
	}
	return b.String()
}

// Response is a chat-completion response with usage accounting.
type Response struct {
	Content      string
	InputTokens  int
	OutputTokens int
}

// Client is anything that can answer a chat request. Swapping the model is
// a one-line change (the paper's "Modularization" property).
type Client interface {
	Complete(req Request) (Response, error)
}

// CountTokens estimates the token count of s with the 4-chars-per-token
// rule of thumb used for GPT-family cost planning.
func CountTokens(s string) int {
	n := (len(s) + 3) / 4
	if n == 0 && len(s) > 0 {
		n = 1
	}
	return n
}

// Usage accumulates token usage across calls, for the cost model.
type Usage struct {
	Calls        int
	InputTokens  int
	OutputTokens int
}

// Add accounts one response.
func (u *Usage) Add(resp Response) {
	u.Calls++
	u.InputTokens += resp.InputTokens
	u.OutputTokens += resp.OutputTokens
}

// Metered wraps a client and accumulates usage on every call.
type Metered struct {
	Inner Client
	Usage Usage
}

// Complete implements Client.
func (m *Metered) Complete(req Request) (Response, error) {
	resp, err := m.Inner.Complete(req)
	if err == nil {
		m.Usage.Add(resp)
	}
	return resp, err
}

// Scripted replays canned responses in order; it is the deterministic
// test double for pipeline unit tests.
type Scripted struct {
	Responses []string
	pos       int
}

// Complete implements Client.
func (s *Scripted) Complete(req Request) (Response, error) {
	if s.pos >= len(s.Responses) {
		return Response{}, fmt.Errorf("llm: scripted client exhausted after %d responses", s.pos)
	}
	content := s.Responses[s.pos]
	s.pos++
	return Response{
		Content:      content,
		InputTokens:  CountTokens(req.Text()),
		OutputTokens: CountTokens(content),
	}, nil
}
