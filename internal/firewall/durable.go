package firewall

// durable.go is the wire image of a rule DB, the only checkpointed
// representation of firewall.Stateful: the distinct shared rules plus,
// per trie prefix, the indices of the handles attached there — so
// Figure 3a's aliasing (one rule under many prefixes) survives the byte
// round trip exactly. Encoding walks the live trie; decoding rebuilds a
// DB through AttachRule clones of one box per rule index.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/linear"
	"repro/internal/packet"
)

const firewallTokenVersion = 1

// walkedPrefix is one trie leaf: a prefix and the distinct-rule indices
// of its handle list, in evaluation order.
type walkedPrefix struct {
	ip      packet.IPv4
	length  uint8
	handles []uint32
}

// flattenDB walks a DB into distinct rules (aliased handles counted
// once, identity by shared box) and per-prefix index lists. The O(n²)
// identity scan matches RuleCount; rule sets are configuration-sized.
func flattenDB(db *DB) (rules []Rule, prefixes []walkedPrefix) {
	var boxes []SharedRule
	indexOf := func(h SharedRule) uint32 {
		for i, b := range boxes {
			if h.SameBox(b) {
				return uint32(i)
			}
		}
		boxes = append(boxes, h)
		rules = append(rules, h.Get())
		return uint32(len(boxes) - 1)
	}
	db.Rules.Walk(func(ip packet.IPv4, length int, v *[]SharedRule) bool {
		p := walkedPrefix{ip: ip, length: uint8(length)}
		for _, h := range *v {
			p.handles = append(p.handles, indexOf(h))
		}
		prefixes = append(prefixes, p)
		return true
	})
	return rules, prefixes
}

// appendDB appends db's wire image to buf. Only reads db (Walk, Rc.Get),
// so concurrent captures of one DB need no serialization.
func appendDB(buf []byte, db *DB) ([]byte, error) {
	rules, prefixes := flattenDB(db)
	buf = append(buf, firewallTokenVersion, byte(db.Default))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rules)))
	for _, r := range rules {
		if len(r.Comment) > 0xffff {
			return nil, fmt.Errorf("firewall: rule %d comment of %d bytes does not fit the token", r.ID, len(r.Comment))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.ID)))
		buf = append(buf, byte(r.Action), r.Proto)
		buf = binary.LittleEndian.AppendUint16(buf, r.DstPort)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Comment)))
		buf = append(buf, r.Comment...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(prefixes)))
	for _, p := range prefixes {
		if len(p.handles) > 0xffff {
			return nil, fmt.Errorf("firewall: %d rules under one prefix do not fit the token", len(p.handles))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ip))
		buf = append(buf, p.length)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.handles)))
		for _, idx := range p.handles {
			buf = binary.LittleEndian.AppendUint32(buf, idx)
		}
	}
	return buf, nil
}

// ruleFixedSize is the wire size of a rule with an empty comment.
const ruleFixedSize = 8 + 1 + 1 + 2 + 2

// decodeDB builds a fresh DB from a wire image: one Rc box per rule
// index, attached by clone under every prefix that lists it. The rule
// count is checked against the bytes that remain before it sizes
// anything.
func decodeDB(data []byte) (*DB, error) {
	if len(data) < 6 || data[0] != firewallTokenVersion {
		return nil, fmt.Errorf("firewall: bad token header")
	}
	db := NewDB(Action(data[1]))
	nRules := int(binary.LittleEndian.Uint32(data[2:]))
	data = data[6:]
	if nRules > len(data)/ruleFixedSize {
		return nil, fmt.Errorf("firewall: token claims %d rules in %d bytes", nRules, len(data))
	}
	handles := make([]SharedRule, nRules)
	for i := 0; i < nRules; i++ {
		if len(data) < ruleFixedSize {
			return nil, fmt.Errorf("firewall: token truncated at rule %d", i)
		}
		r := Rule{
			ID:      int(int64(binary.LittleEndian.Uint64(data))),
			Action:  Action(data[8]),
			Proto:   data[9],
			DstPort: binary.LittleEndian.Uint16(data[10:]),
		}
		commentLen := int(binary.LittleEndian.Uint16(data[12:]))
		data = data[ruleFixedSize:]
		if len(data) < commentLen {
			return nil, fmt.Errorf("firewall: token truncated at rule %d comment", i)
		}
		r.Comment = string(data[:commentLen])
		data = data[commentLen:]
		handles[i] = linear.NewRc(r)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("firewall: token truncated at prefix count")
	}
	nPrefixes := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	for i := 0; i < nPrefixes; i++ {
		if len(data) < 7 {
			return nil, fmt.Errorf("firewall: token truncated at prefix %d", i)
		}
		ip := packet.IPv4(binary.LittleEndian.Uint32(data))
		length := int(data[4])
		nHandles := int(binary.LittleEndian.Uint16(data[5:]))
		data = data[7:]
		if len(data) < nHandles*4 {
			return nil, fmt.Errorf("firewall: token truncated at prefix %d handles", i)
		}
		for j := 0; j < nHandles; j++ {
			idx := binary.LittleEndian.Uint32(data[j*4:])
			if int(idx) >= nRules {
				return nil, fmt.Errorf("firewall: prefix %d references rule %d of %d", i, idx, nRules)
			}
			if err := db.AttachRule(ip, length, handles[idx]); err != nil {
				return nil, fmt.Errorf("firewall: decode: %w", err)
			}
		}
		data = data[nHandles*4:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("firewall: token has %d trailing bytes", len(data))
	}
	return db, nil
}
